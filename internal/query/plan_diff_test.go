package query

// The differential plan-vs-interpreter suite: every query in the corpus is
// evaluated twice, once with the planner enabled (the default) and once
// forced through the generic interpreter, and the two answers must be
// identical — same variables, same rows, same Complete flag, and for the
// enumeration path the same row order and budget accounting. This is the
// regression net under the compiled fast paths: any divergence between a
// compiled plan and the evaluator semantics it replaces fails here first.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/presburger"
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

// evalBothActive evaluates f with the planner on and off and returns the
// two answers.
func evalBothActive(t *testing.T, st *db.State, f *logic.Formula) (on, off *Answer) {
	t.Helper()
	prev := plan.SetEnabled(true)
	defer plan.SetEnabled(prev)
	on, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatalf("planner on: %v", err)
	}
	plan.SetEnabled(false)
	off, err = EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
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

// enumRun is one §1.1 run: the answer, the row keys in the order the row
// sink received them, and the run's probe and decision counter deltas.
type enumRun struct {
	ans               *Answer
	seq               []string
	probes, decisions int64
}

// runEnum runs the §1.1 algorithm over Presburger arithmetic with the
// planner on or off, recording the delivery order through the row sink.
func runEnum(t *testing.T, planned bool, st *db.State, f *logic.Formula, budget EnumerationBudget) enumRun {
	t.Helper()
	prevObs := obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)
	prev := plan.SetEnabled(planned)
	defer plan.SetEnabled(prev)
	var r enumRun
	sink := func(_ []string, row db.Tuple) error {
		r.seq = append(r.seq, row.Key())
		return nil
	}
	p0, d0 := mEnumProbes.Value(), mEnumDecisions.Value()
	ans, err := EnumerationAnswerSinkCtx(context.Background(), presburger.Domain{}, presburger.Decider(), st, f, budget, sink)
	if err != nil {
		t.Fatalf("planner=%v: %v", planned, err)
	}
	r.ans, r.probes, r.decisions = ans, mEnumProbes.Value()-p0, mEnumDecisions.Value()-d0
	return r
}

// evalBothEnum runs the §1.1 algorithm with the planner on (the algebra
// plan's table answers) and off (the decider answers) and checks that the
// two runs are indistinguishable: same Complete flag, same rows delivered
// in the same order, same probe count. The table path decides nothing,
// which also proves it is the path that ran.
func evalBothEnum(t *testing.T, st *db.State, f *logic.Formula, budget EnumerationBudget) (on, off enumRun) {
	t.Helper()
	on = runEnum(t, true, st, f, budget)
	off = runEnum(t, false, st, f, budget)
	if on.ans.Complete != off.ans.Complete {
		t.Errorf("%v: Complete differs: plan %v, interp %v", f, on.ans.Complete, off.ans.Complete)
	}
	if strings.Join(on.seq, ";") != strings.Join(off.seq, ";") {
		t.Errorf("%v: delivered row sequences differ:\nplan:   %v\ninterp: %v", f, on.seq, off.seq)
	}
	if len(on.seq) != on.ans.Rows.Len() {
		t.Errorf("%v: sink saw %d rows, answer has %d", f, len(on.seq), on.ans.Rows.Len())
	}
	if on.probes != off.probes {
		t.Errorf("%v: probes differ: plan %d, interp %d", f, on.probes, off.probes)
	}
	if on.decisions != 0 {
		t.Errorf("%v: table path made %d decisions, want 0", f, on.decisions)
	}
	if off.decisions == 0 {
		t.Errorf("%v: decider path made no decisions", f)
	}
	return on, off
}

func TestPlanDifferentialEnumerate(t *testing.T) {
	on, _ := evalBothEnum(t, enumState(t), twoSteps(), DefaultBudget)
	var want []string
	for _, row := range [][2]int64{{0, 0}, {1, 0}, {1, 1}, {2, 2}, {1, 3}, {3, 2}} {
		want = append(want, db.Tuple{domain.Int(row[0]), domain.Int(row[1])}.Key())
	}
	if strings.Join(on.seq, ";") != strings.Join(want, ";") {
		t.Errorf("delivery order %v, want %v", on.seq, want)
	}
	if !on.ans.Complete {
		t.Error("finite answer reported incomplete")
	}
}

// TestPlanDifferentialEnumerateRowBudget: a row budget below the answer
// size stops both paths at the same partial prefix.
func TestPlanDifferentialEnumerateRowBudget(t *testing.T) {
	on, off := evalBothEnum(t, enumState(t), twoSteps(), EnumerationBudget{Rows: 3, Probe: 1 << 12})
	if on.ans.Complete || off.ans.Complete {
		t.Errorf("row-budget run reported complete: plan %v, interp %v", on.ans.Complete, off.ans.Complete)
	}
	if on.ans.Rows.Len() != 3 {
		t.Errorf("want 3 rows under the budget, got %d", on.ans.Rows.Len())
	}
}

// TestPlanDifferentialEnumerateProbeBudget: a probe budget too small to
// reach the next row stops both paths identically.
func TestPlanDifferentialEnumerateProbeBudget(t *testing.T) {
	on, _ := evalBothEnum(t, enumState(t), twoSteps(), EnumerationBudget{Rows: 100, Probe: 4})
	if on.ans.Complete || on.ans.Rows.Len() != 3 {
		t.Errorf("want 3 rows before the probe budget runs out, got %d complete=%v", on.ans.Rows.Len(), on.ans.Complete)
	}
}

// TestPlanDifferentialCancelled: a context dead on arrival yields the same
// partial answer (the query's variables, no rows, Complete=false) and the
// context's error on every path, and a profiled run's profile is marked
// incomplete too.
func TestPlanDifferentialCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, est := fathersState(t), enumState(t)
	f := parser.MustParse("exists y. F(x, y)")
	enum := func() (*Answer, error) {
		return EnumerationAnswerSinkCtx(ctx, presburger.Domain{}, presburger.Decider(), est, twoSteps(), DefaultBudget, nil)
	}

	prev := plan.SetEnabled(true)
	defer plan.SetEnabled(prev)
	for _, c := range []struct {
		name    string
		planned bool
		vars    []string
		run     func() (*Answer, error)
	}{
		{"active/plan", true, []string{"x"}, func() (*Answer, error) { return EvalActiveCtx(ctx, eqdom.Domain{}, st, f) }},
		{"active/interp", false, []string{"x"}, func() (*Answer, error) { return EvalActiveCtx(ctx, eqdom.Domain{}, st, f) }},
		{"active/profiled", true, []string{"x"}, func() (*Answer, error) {
			ans, prof, err := EvalActiveProfiledCtx(ctx, eqdom.Domain{}, st, f)
			if prof == nil || prof.Complete || prof.Rows != 0 {
				t.Errorf("active/profiled: want an empty incomplete profile, got %+v", prof)
			}
			return ans, err
		}},
		{"enum/plan", true, []string{"x", "y"}, enum},
		{"enum/interp", false, []string{"x", "y"}, enum},
	} {
		plan.SetEnabled(c.planned)
		ans, err := c.run()
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
