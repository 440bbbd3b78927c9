package query

// The differential plan-vs-interpreter suite: every query in the corpus is
// evaluated twice, once with the planner on (the default) and once under
// a run configuration that turns it off (runcfg.Config.NoPlan), so the
// generic interpreter answers, and the two answers must be
// identical — same variables, same rows, same Complete flag, and for the
// enumeration path the same row order and budget accounting. This is the
// regression net under the compiled fast paths: any divergence between a
// compiled plan and the evaluator semantics it replaces fails here first.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/autarith"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/presburger"
	"repro/internal/runcfg"
)

// diffCorpusActive is the active-domain corpus: formulas chosen to land in
// every plan tier (safe-range → algebra; negation/universal/equality-only →
// closure; vacuous quantification → closure via the column-set gate).
var diffCorpusActive = []string{
	// Algebra tier: safe-range shapes.
	"F(x, y)",
	"exists y. F(x, y)",
	"F(x, y) & F(y, z)",
	"F(x, y) & (F(y, z) | F(z, x))",
	`F("adam", y)`,
	// Closure tier: outside the safe-range fragment.
	"~F(x, y)",
	"x = y",
	"x != y & F(x, y)",
	"forall y. (F(x, y) -> ~(x = y))",
	"forall y. (F(x, y) -> F(x, y))",
	`forall y. (F("cain", y) -> F(x, y))`,
	"exists y. (F(y, x) & y = y)",
	"x = x & (exists x. F(x, y))",
	// Boolean queries (no free variables).
	`exists x. F("adam", x)`,
	`exists x. F("enoch", x)`,
	"forall x. (exists y. F(x, y) -> x = x)",
	// Constants outside the active domain.
	`x = "ghost"`,
	`x = "adam" | x = "ghost"`,
}

// noPlan is a context that turns the planner off.
var noPlan = runcfg.With(context.Background(), runcfg.Config{NoPlan: true})

// evalBothActive evaluates f with the planner on and off and returns the
// two answers.
func evalBothActive(t *testing.T, st *db.State, f *logic.Formula) (on, off *Answer) {
	t.Helper()
	on, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatalf("planner on: %v", err)
	}
	off, err = EvalActiveCtx(noPlan, eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatalf("planner off: %v", err)
	}
	return on, off
}

func sameVars(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlanDifferentialActive(t *testing.T) {
	t.Parallel()
	st := fathersState(t)
	for _, src := range diffCorpusActive {
		f := parser.MustParse(src)
		on, off := evalBothActive(t, st, f)
		if !sameVars(on.Vars, off.Vars) {
			t.Errorf("%s: vars differ: plan %v, interp %v", src, on.Vars, off.Vars)
		}
		if on.Complete != off.Complete {
			t.Errorf("%s: Complete differs: plan %v, interp %v", src, on.Complete, off.Complete)
		}
		if kOn, kOff := rowsKey(t, on), rowsKey(t, off); kOn != kOff {
			t.Errorf("%s: rows differ:\nplan:   %s\ninterp: %s", src, kOn, kOff)
		}
	}
}

// TestPlanDifferentialActiveEmptyRelation: an atom over an empty relation
// makes Translate drop its variables, which changes the answer shape on
// some paths; the planner must agree with the interpreter here too.
func TestPlanDifferentialActiveEmptyRelation(t *testing.T) {
	t.Parallel()
	st := db.NewState(db.MustScheme(map[string]int{"R": 1, "S": 1}))
	if err := st.Insert("S", domain.Word("a")); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"R(x)", "~R(x)", "R(x) & S(x)", "S(x) & ~R(x)"} {
		f := parser.MustParse(src)
		on, off := evalBothActive(t, st, f)
		if kOn, kOff := rowsKey(t, on), rowsKey(t, off); kOn != kOff {
			t.Errorf("%s: rows differ:\nplan:   %s\ninterp: %s", src, kOn, kOff)
		}
	}
}

// enumState is the fixture of the enumeration tests: a binary relation E
// over Presburger arithmetic.
func enumState(t *testing.T) *db.State {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"E": 2}))
	for _, pair := range [][2]int64{{0, 2}, {1, 1}, {2, 0}, {1, 3}, {3, 0}} {
		if err := st.Insert("E", domain.Int(pair[0]), domain.Int(pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// twoSteps is ∃z (E(x, z) ∧ E(z, y)): finite and safe-range, so the
// planner serves it from the algebra tier on the enumeration path. Over
// enumState its six rows arrive in the enumeration order of ℕ² (by
// maximum component), which is not the sorted order Tuples() returns.
func twoSteps() *logic.Formula {
	return logic.Exists("z", logic.And(
		logic.Atom("E", logic.Var("x"), logic.Var("z")),
		logic.Atom("E", logic.Var("z"), logic.Var("y"))))
}

// enumRun is one §1.1 run: the answer and error, the row keys in the
// order the row sink received them, and the run's probe and decision
// counter deltas.
type enumRun struct {
	ans               *Answer
	err               error
	seq               []string
	probes, decisions int64
}

// enumSources are the §1.1 loop's row sources, in the order the served
// path tries them.
var enumSources = []string{"table", "automaton", "decider"}

// newEnumSource builds one row source for f over Presburger arithmetic in
// st, as the served path would, and its variables; ok is false when the
// source does not apply (no algebra-tier table for f).
func newEnumSource(t *testing.T, kind string, st *db.State, f *logic.Formula) (src rowSource, vars []string, ok bool) {
	t.Helper()
	ctx, dom := context.Background(), presburger.Domain{}
	if kind == "table" {
		p, tab := planAnswer(ctx, nil, dom, st, f)
		if tab == nil {
			return nil, nil, false
		}
		return tableSource{rows: tab}, p.Vars(), true
	}
	pure, err := Translate(dom, st, f)
	if err != nil {
		t.Fatal(err)
	}
	vars = pure.FreeVars()
	if kind == "automaton" {
		d, err := autarith.Compile(ctx, pure)
		if err != nil {
			t.Fatalf("%v: compile: %v", f, err)
		}
		return newDFASource(d), vars, true
	}
	return &decideSource{dom: dom, dec: presburger.Decider(), vars: vars, pure: pure, remaining: pure}, vars, true
}

// recordEnum runs an enumeration, recording its outcome, the delivery
// order through the row sink and the probe and decision counters.
func recordEnum(t *testing.T, run func(sink RowSink) (*Answer, error)) enumRun {
	t.Helper()
	prevObs := obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	var r enumRun
	sink := func(_ []string, row db.Tuple) error {
		r.seq = append(r.seq, row.Key())
		return nil
	}
	p0, d0 := mEnumProbes.Value(), mEnumDecisions.Value()
	r.ans, r.err = run(sink)
	r.probes, r.decisions = mEnumProbes.Value()-p0, mEnumDecisions.Value()-d0
	return r
}

// evalAllEnum runs the §1.1 loop on f with every row source that applies,
// and the served path with the planner on and off, and checks that the
// runs are indistinguishable from the decider's — the algorithm as the
// paper states it: same Complete flag, same rows delivered in the same
// order, same probe count. The table and the automaton decide nothing,
// which also proves they are the sources that ran. It returns the
// decider's run and which sources applied.
func evalAllEnum(t *testing.T, st *db.State, f *logic.Formula, budget EnumerationBudget) (ref enumRun, ran []string) {
	t.Helper()
	runs := map[string]enumRun{}
	for _, kind := range enumSources {
		src, vars, ok := newEnumSource(t, kind, st, f)
		if !ok {
			continue
		}
		ran = append(ran, kind)
		runs[kind] = recordEnum(t, func(sink RowSink) (*Answer, error) {
			return enumerate(context.Background(), nil, presburger.Domain{}, src, vars, budget, sink)
		})
	}
	for name, ctx := range map[string]context.Context{"served/plan=on": context.Background(), "served/plan=off": noPlan} {
		runs[name] = recordEnum(t, func(sink RowSink) (*Answer, error) {
			return EnumerationAnswerSinkCtx(ctx, presburger.Domain{}, presburger.Decider(), st, f, budget, sink)
		})
	}
	ref = runs["decider"]
	if ref.decisions == 0 {
		t.Errorf("%v: decider made no decisions", f)
	}
	for name, r := range runs {
		if r.err != nil {
			t.Fatalf("%v: %s: %v", f, name, r.err)
		}
		if r.ans.Complete != ref.ans.Complete {
			t.Errorf("%v: %s Complete %v, decider %v", f, name, r.ans.Complete, ref.ans.Complete)
		}
		if strings.Join(r.seq, ";") != strings.Join(ref.seq, ";") {
			t.Errorf("%v: %s delivered %v, decider %v", f, name, r.seq, ref.seq)
		}
		if len(r.seq) != r.ans.Rows.Len() {
			t.Errorf("%v: %s sink saw %d rows, answer has %d", f, name, len(r.seq), r.ans.Rows.Len())
		}
		if r.probes != ref.probes {
			t.Errorf("%v: %s made %d probes, decider %d", f, name, r.probes, ref.probes)
		}
		if name != "decider" && r.decisions != 0 {
			t.Errorf("%v: %s made %d decisions, want 0", f, name, r.decisions)
		}
	}
	return ref, ran
}

func TestPlanDifferentialEnumerate(t *testing.T) {
	ref, ran := evalAllEnum(t, enumState(t), twoSteps(), DefaultBudget)
	if len(ran) != 3 {
		t.Errorf("sources run: %v, want all three", ran)
	}
	var want []string
	for _, row := range [][2]int64{{0, 0}, {1, 0}, {1, 1}, {2, 2}, {1, 3}, {3, 2}} {
		want = append(want, db.Tuple{domain.Int(row[0]), domain.Int(row[1])}.Key())
	}
	if strings.Join(ref.seq, ";") != strings.Join(want, ";") {
		t.Errorf("delivery order %v, want %v", ref.seq, want)
	}
	if !ref.ans.Complete {
		t.Error("finite answer reported incomplete")
	}
}

// TestPlanDifferentialEnumerateRowBudget: a row budget below the answer
// size stops every source at the same partial prefix.
func TestPlanDifferentialEnumerateRowBudget(t *testing.T) {
	ref, _ := evalAllEnum(t, enumState(t), twoSteps(), EnumerationBudget{Rows: 3, Probe: 1 << 12})
	if ref.ans.Complete || ref.ans.Rows.Len() != 3 {
		t.Errorf("want 3 rows under the budget, incomplete; got %d, complete=%v", ref.ans.Rows.Len(), ref.ans.Complete)
	}
}

// TestPlanDifferentialEnumerateProbeBudget: a probe budget too small to
// reach the next row stops every source identically.
func TestPlanDifferentialEnumerateProbeBudget(t *testing.T) {
	ref, _ := evalAllEnum(t, enumState(t), twoSteps(), EnumerationBudget{Rows: 100, Probe: 4})
	if ref.ans.Complete || ref.ans.Rows.Len() != 3 {
		t.Errorf("want 3 rows before the probe budget runs out, got %d complete=%v", ref.ans.Rows.Len(), ref.ans.Complete)
	}
}

// TestPlanDifferentialEnumerateClosureTier: the shape of finqbench's
// enum-stream requests, ∃y (R(y) ∧ x < y) ∧ x < k, is finite but not
// safe-range, so no table applies; the automaton and the decider agree on
// it, complete and under a row budget, and the served path takes the
// automaton.
func TestPlanDifferentialEnumerateClosureTier(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, n := range []int64{6, 1, 4, 2} {
		if err := st.Insert("R", domain.Int(n)); err != nil {
			t.Fatal(err)
		}
	}
	f := parser.MustParse("(exists y. (R(y) & lt(x, y))) & lt(x, 536870917)")
	for _, budget := range []EnumerationBudget{DefaultBudget, {Rows: 4, Probe: 1 << 10}, {Rows: 10, Probe: 3}} {
		ref, ran := evalAllEnum(t, st, f, budget)
		if strings.Join(ran, ",") != "automaton,decider" {
			t.Errorf("sources run: %v, want automaton and decider", ran)
		}
		if budget == DefaultBudget && (!ref.ans.Complete || ref.ans.Rows.Len() != 6) {
			t.Errorf("want the 6 rows {0..5} complete, got %d complete=%v", ref.ans.Rows.Len(), ref.ans.Complete)
		}
	}
	// An infinite answer: the automaton's count says so, and the budget
	// stops every source at the same rows.
	evalAllEnum(t, st, parser.MustParse("~R(x) & ~lt(x, 3)"), EnumerationBudget{Rows: 5, Probe: 1 << 10})
}

// TestPlanDifferentialCancelled: a context dead on arrival yields the same
// partial answer (the query's variables, no rows, Complete=false) and the
// context's error on every path, and a profiled run's profile is marked
// incomplete too.
func TestPlanDifferentialCancelled(t *testing.T) {
	t.Parallel()
	st, est := fathersState(t), enumState(t)
	f := parser.MustParse("exists y. F(x, y)")
	active := func(ctx context.Context) (*Answer, error) { return EvalActiveCtx(ctx, eqdom.Domain{}, st, f) }
	enum := func(ctx context.Context) (*Answer, error) {
		return EnumerationAnswerSinkCtx(ctx, presburger.Domain{}, presburger.Decider(), est, twoSteps(), DefaultBudget, nil)
	}
	for _, c := range []struct {
		name    string
		planned bool
		vars    []string
		run     func(context.Context) (*Answer, error)
	}{
		{"active/plan", true, []string{"x"}, active},
		{"active/interp", false, []string{"x"}, active},
		{"active/profiled", true, []string{"x"}, func(ctx context.Context) (*Answer, error) {
			ans, prof, err := EvalActiveProfiledCtx(ctx, eqdom.Domain{}, st, f)
			if prof == nil || prof.Complete || prof.Rows != 0 {
				t.Errorf("active/profiled: want an empty incomplete profile, got %+v", prof)
			}
			return ans, err
		}},
		{"enum/plan", true, []string{"x", "y"}, enum},
		{"enum/interp", false, []string{"x", "y"}, enum},
	} {
		ctx := context.Background()
		if !c.planned {
			ctx = noPlan
		}
		ctx, cancel := context.WithCancel(ctx)
		cancel()
		ans, err := c.run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", c.name, err)
		}
		if ans == nil || ans.Complete || ans.Rows.Len() != 0 || !sameVars(ans.Vars, c.vars) {
			t.Errorf("%s: want empty partial answer over %v, got %+v", c.name, c.vars, ans)
		}
	}
}

// TestPlanDifferentialRandom: a random formula population (conjunction,
// disjunction, negation, both quantifiers, equality) evaluated both ways
// over the fathers fixture.
func TestPlanDifferentialRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	st := fathersState(t)
	vars := []string{"x", "y", "z"}
	var rec func(d int) *logic.Formula
	rec = func(d int) *logic.Formula {
		if d == 0 {
			if rng.Intn(3) == 0 {
				return logic.Eq(logic.Var(vars[rng.Intn(3)]), logic.Var(vars[rng.Intn(3)]))
			}
			return logic.Atom("F", logic.Var(vars[rng.Intn(3)]), logic.Var(vars[rng.Intn(3)]))
		}
		switch rng.Intn(6) {
		case 0:
			return logic.And(rec(d-1), rec(d-1))
		case 1:
			return logic.Or(rec(d-1), rec(d-1))
		case 2:
			return logic.Not(rec(d - 1))
		case 3:
			return logic.Implies(rec(d-1), rec(d-1))
		case 4:
			return logic.Forall(vars[rng.Intn(3)], rec(d-1))
		default:
			return logic.Exists(vars[rng.Intn(3)], rec(d-1))
		}
	}
	for i := 0; i < 150; i++ {
		f := rec(3)
		on, off := evalBothActive(t, st, f)
		if kOn, kOff := rowsKey(t, on), rowsKey(t, off); kOn != kOff {
			t.Errorf("%v: rows differ:\nplan:   %s\ninterp: %s", f, kOn, kOff)
		}
		if on.Complete != off.Complete {
			t.Errorf("%v: Complete differs", f)
		}
	}
}

// TestEnumerateCapRefusalFallsBack pins the two inputs whose automata the
// size cap refuses: the served enumeration falls back to the decider and
// answers exactly as a decider-only run does — the same rows, order and
// Complete flag, or the same error.
func TestEnumerateCapRefusalFallsBack(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, n := range []int64{1, 4, 9, 16} {
		if err := st.Insert("R", domain.Int(n)); err != nil {
			t.Fatal(err)
		}
	}
	opts := parser.Options{Functions: map[string]bool{presburger.FuncAdd: true, presburger.FuncMul: true}}
	// Each ground decision of the fallback eliminates z under a divisor of
	// 997, so a few probes keep the test short.
	budget := EnumerationBudget{Rows: 2, Probe: 6}
	for _, src := range []string{
		"exists z. (R(z) & dvd(997, add(x, z)))",
		"exists z. (R(z) & mul(1000003, x) = z)",
	} {
		f, err := parser.ParseWith(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		pure, err := Translate(presburger.Domain{}, st, f)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := autarith.Compile(context.Background(), pure); !errors.Is(err, autarith.ErrTooLarge) {
			t.Fatalf("%s: compile: want ErrTooLarge, got %v", src, err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("%s: refusal took %v", src, took)
		}
		served, servedErr := EnumerationAnswerSinkCtx(context.Background(), presburger.Domain{}, presburger.Decider(), st, f, budget, nil)
		dec, vars, _ := newEnumSource(t, "decider", st, f)
		want, wantErr := enumerate(context.Background(), nil, presburger.Domain{}, dec, vars, budget, nil)
		switch {
		case servedErr != nil || wantErr != nil:
			if fmt.Sprint(servedErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s: served error %v, decider-only %v", src, servedErr, wantErr)
			}
		case rowsKey(t, served) != rowsKey(t, want) || served.Complete != want.Complete:
			t.Errorf("%s: served %s (complete %v), decider-only %s (complete %v)",
				src, rowsKey(t, served), served.Complete, rowsKey(t, want), want.Complete)
		}
		t.Logf("%s: served %v / %v", src, served != nil, servedErr)
	}
}

// TestPlanDifferentialEnumerateRandom: on seeded random queries over a
// unary R and a binary S in random states, the automaton and the decider
// enumerate the same rows in the same order, with the same Complete flag
// and probe count. Queries the decider cannot finish (Cooper's size
// guard) are skipped and must stay rare.
func TestPlanDifferentialEnumerateRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 120
	budget := EnumerationBudget{Rows: 6, Probe: 64}
	compared, skipped, complete := 0, 0, 0
	for i := 0; i < n; i++ {
		st := db.NewState(db.MustScheme(map[string]int{"R": 1, "S": 2}))
		for j := 0; j < 1+rng.Intn(4); j++ {
			if err := st.Insert("R", domain.Int(int64(rng.Intn(12)))); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 1+rng.Intn(3); j++ {
			if err := st.Insert("S", domain.Int(int64(rng.Intn(12))), domain.Int(int64(rng.Intn(12)))); err != nil {
				t.Fatal(err)
			}
		}
		f := randEnumQuery(rng)
		dfa, vars, _ := newEnumSource(t, "automaton", st, f)
		if len(vars) == 0 {
			continue // a sentence takes its single decision on every path
		}
		dec, _, _ := newEnumSource(t, "decider", st, f)
		var runs [2]enumRun
		for k, src := range []rowSource{dfa, dec} {
			runs[k] = recordEnum(t, func(sink RowSink) (*Answer, error) {
				return enumerate(context.Background(), nil, presburger.Domain{}, src, vars, budget, sink)
			})
		}
		a, d := runs[0], runs[1]
		if a.err != nil {
			t.Fatalf("%v: automaton: %v", f, a.err)
		}
		if d.err != nil {
			skipped++
			continue
		}
		compared++
		if a.ans.Complete != d.ans.Complete || strings.Join(a.seq, ";") != strings.Join(d.seq, ";") || a.probes != d.probes {
			t.Fatalf("%v in %v: automaton %v complete=%v probes=%d; decider %v complete=%v probes=%d",
				f, st, a.seq, a.ans.Complete, a.probes, d.seq, d.ans.Complete, d.probes)
		}
		if a.ans.Complete {
			complete++
		}
	}
	if skipped > compared/10 {
		t.Fatalf("too many decider bailouts: %d against %d compared", skipped, compared)
	}
	if complete == 0 || complete == compared {
		t.Fatalf("unbalanced draw: %d of %d complete", complete, compared)
	}
	t.Logf("%d compared (%d complete), %d decider bailouts", compared, complete, skipped)
}

// randEnumQuery draws a query over free x and y (either may vanish) and
// bound z: lt/le/=/dvd/add atoms, R and S atoms, ¬, ∧, ∨ and ∃.
func randEnumQuery(rng *rand.Rand) *logic.Formula {
	vars := []string{"x", "y", "z"}
	v := func() logic.Term { return logic.Var(vars[rng.Intn(3)]) }
	c := func() logic.Term { return logic.Const(fmt.Sprint(rng.Intn(12))) }
	term := func() logic.Term {
		switch rng.Intn(4) {
		case 0:
			return c()
		case 1:
			return logic.App(presburger.FuncAdd, v(), c())
		case 2:
			return logic.App(presburger.FuncAdd, v(), v())
		}
		return v()
	}
	atom := func() *logic.Formula {
		switch rng.Intn(6) {
		case 0:
			return logic.Atom("R", v())
		case 1:
			return logic.Atom("S", v(), v())
		case 2:
			return logic.Atom(presburger.PredLt, term(), term())
		case 3:
			return logic.Atom(presburger.PredLe, term(), term())
		case 4:
			return logic.Eq(term(), term())
		}
		return logic.Atom(presburger.PredDvd, logic.Const(fmt.Sprint(2+rng.Intn(2))), term())
	}
	var rec func(d int) *logic.Formula
	rec = func(d int) *logic.Formula {
		if d == 0 {
			return atom()
		}
		switch rng.Intn(6) {
		case 0:
			return atom()
		case 1:
			return logic.Not(rec(d - 1))
		case 2:
			return logic.Or(rec(d-1), rec(d-1))
		case 3:
			return logic.Exists("z", rec(d-1))
		}
		return logic.And(rec(d-1), rec(d-1))
	}
	return rec(3)
}
