package finq

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/autarith"
	"repro/internal/obs"
	"repro/internal/obs/qstats"
	"repro/internal/plan"
	"repro/internal/presburger"
	"repro/internal/query"
	"repro/internal/runcfg"
)

func TestLookup(t *testing.T) {
	names := []string{"eq", "nless", "presburger", "zless", "nsucc", "wordlex", "traces"}
	if len(Domains()) != len(names) {
		t.Fatalf("expected %d domains", len(names))
	}
	for _, n := range names {
		d, err := Lookup(n)
		if err != nil || d.Name != n {
			t.Errorf("Lookup(%q): %v %v", n, d.Name, err)
		}
		if d.Domain == nil || d.Decider == nil || d.Eliminator == nil {
			t.Errorf("domain %q missing capabilities", n)
		}
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Errorf("unknown domain accepted")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	d := MustLookup("eq")
	scheme := MustScheme(map[string]int{"F": 2})
	st := NewState(scheme)
	if err := st.Insert("F", Word("adam"), Word("abel")); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("F", Word("adam"), Word("cain")); err != nil {
		t.Fatal(err)
	}
	f, err := d.Parse("exists y. F(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), Request{Domain: d.Name, State: st, Formula: f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Rows.Len() != 1 {
		t.Errorf("fathers = %d, want 1", res.Answer.Rows.Len())
	}
	v, err := RelativeSafety(d, st, f)
	if err != nil || v != Holds {
		t.Errorf("RelativeSafety = %v, %v", v, err)
	}
	report := SafeRange(scheme, f)
	if !report.Safe {
		t.Errorf("safe-range analysis failed")
	}
}

func TestFacadeEnumerate(t *testing.T) {
	d := MustLookup("presburger")
	st := NewState(MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", Nat(3)); err != nil {
		t.Fatal(err)
	}
	f, err := d.Parse("exists y. (R(y) & lt(x, y))")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), Request{Domain: d.Name, State: st, Formula: f, Mode: ModeEnumerate})
	if err != nil {
		t.Fatal(err)
	}
	if ans := res.Answer; !ans.Complete || ans.Rows.Len() != 3 {
		t.Errorf("enumeration: %d rows, complete=%v", ans.Rows.Len(), ans.Complete)
	}
}

// TestEmptyRelationKeepsFreeVariables: with R empty, ¬R(x) is the whole
// domain in every registered domain. Relative safety must not call it
// finite (the traces semi-decision may answer unknown), and the §1.1
// enumeration must answer rows over x until its budget stops it, not a
// boolean: translating R(x) to false must not erase x.
func TestEmptyRelationKeepsFreeVariables(t *testing.T) {
	for _, d := range Domains() {
		st := NewState(MustScheme(map[string]int{"R": 1}))
		f, err := d.Parse("~R(x)")
		if err != nil {
			t.Fatal(err)
		}
		v, err := RelativeSafety(d, st, f)
		if err != nil || v == Holds || (v == Unknown && d.Name != "traces") {
			t.Errorf("%s: relative safety of ~R(x) over an empty R: %v %v, want fails", d.Name, v, err)
		}
		res, err := Eval(context.Background(), Request{Domain: d.Name, State: st, Formula: f, Mode: ModeEnumerate,
			Budget: &EnumerationBudget{Rows: 5, Probe: 1 << 10}})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if ans := res.Answer; fmt.Sprint(ans.Vars) != "[x]" || ans.Rows.Len() != 5 || res.Stopped != "budget" {
			t.Errorf("%s: enumeration of ~R(x) over an empty R: vars %v, %d rows, stopped %q; want [x], 5, budget",
				d.Name, ans.Vars, ans.Rows.Len(), res.Stopped)
		}
	}
}

// TestEnumerateDoesNotCompileClosure: the §1.1 loop can only use an
// algebra-tier plan, so enumerating a formula outside that tier must not
// compile its closure program. The first active-domain evaluation compiles
// it, once, and the query's stats row names the tier that served: none
// while the decider answered, closure after the plan ran.
func TestEnumerateDoesNotCompileClosure(t *testing.T) {
	prevObs := obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)

	d := MustLookup("presburger")
	// A relation name no other run has used keeps the formula's plan out
	// of the process-wide cache, also under -count.
	rel := fmt.Sprintf("Lazy%d", time.Now().UnixNano())
	st := NewState(MustScheme(map[string]int{rel: 1}))
	if err := st.Insert(rel, Nat(5)); err != nil {
		t.Fatal(err)
	}
	f, err := d.Parse("~" + rel + "(x)")
	if err != nil {
		t.Fatal(err)
	}
	key := f.CanonicalKey()
	planColumn := func() string {
		t.Helper()
		for _, e := range qstats.Default().Take().Entries {
			if e.Key == key {
				return e.Plan
			}
		}
		t.Fatal("no stats row for the query")
		return ""
	}
	closures := obs.NewCounter("plan.compile.closure")
	before := closures.Value()

	res, err := Eval(context.Background(), Request{Domain: d.Name, State: st, Formula: f,
		Mode: ModeEnumerate, Budget: &EnumerationBudget{Rows: 2, Probe: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Rows.Len() != 2 {
		t.Fatalf("enumeration: %d rows, want the 2 the budget allows", res.Answer.Rows.Len())
	}
	if got := closures.Value() - before; got != 0 {
		t.Fatalf("enumeration compiled %d closure programs, want 0", got)
	}
	if got := planColumn(); got != "" {
		t.Fatalf("stats plan column %q after a decider-served enumeration, want empty", got)
	}

	for i := 0; i < 2; i++ {
		if _, err := Eval(context.Background(), Request{Domain: d.Name, State: st, Formula: f}); err != nil {
			t.Fatal(err)
		}
	}
	if got := closures.Value() - before; got != 1 {
		t.Fatalf("two active-domain evaluations compiled %d closure programs, want 1", got)
	}
	if got := planColumn(); got != string(plan.TierClosure) {
		t.Fatalf("stats plan column %q after active-domain evaluation, want closure", got)
	}
}

func TestFacadeDecideAndEliminate(t *testing.T) {
	d := MustLookup("nsucc")
	f, err := d.Parse("exists x. s(x) = 3")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Decide(context.Background(), d, f)
	if err != nil || !v {
		t.Errorf("Decide: %v %v", v, err)
	}
	g, err := Eliminate(context.Background(), d, f)
	if err != nil || !g.QuantifierFree() {
		t.Errorf("Eliminate: %v %v", g, err)
	}
}

// TestDecidersStopAtDeadline: the Cooper-backed domains — N<, Presburger
// arithmetic, ℤ and the shortlex words — hand the caller's context to the
// elimination, so a sentence whose elimination runs for seconds (and over
// ℕ and the words ends on the size bound) stops at a 50 ms deadline with
// the context's error, through Decide and Eliminate alike, within
// deadlineOverrun of it: Cooper polls the context once per disjunct it
// builds, not only between quantifiers.
//
// The wide sentence is the finitization equivalence Theorem 2.5 builds for
// dvd(10000, x): an inner elimination yields ~10⁴ disjuncts, which the
// simplifier once compared pairwise for seconds without polling. It may
// also end on Cooper's size guard.
func TestDecidersStopAtDeadline(t *testing.T) {
	t.Parallel()
	src, err := os.ReadFile(deadlineSentence)
	if err != nil {
		t.Fatal(err)
	}
	const wide = "forall x. (dvd(10000, x) <-> (dvd(10000, x) & exists m. (forall x. (dvd(10000, x) -> lt(x, m)))))"
	cases := []struct {
		domain, src string
		guard       bool // Cooper's size guard may answer first
	}{
		{"nless", string(src), false},
		{"presburger", string(src), false},
		{"zless", string(src), false},
		{"wordlex", string(src), false},
		{"presburger", wide, true},
		{"zless", wide, true},
	}
	for _, c := range cases {
		d := MustLookup(c.domain)
		f, err := d.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		name := c.domain
		if c.guard {
			name += " (wide)"
		}
		for _, op := range []string{"Decide", "Eliminate"} {
			const deadline = 50 * time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			start := time.Now()
			if op == "Decide" {
				_, err = Decide(ctx, d, f)
			} else {
				_, err = Eliminate(ctx, d, f)
			}
			took := time.Since(start)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) && !(c.guard && errors.Is(err, presburger.ErrTooLarge)) {
				t.Errorf("%s %s: %v, want the deadline", op, name, err)
			}
			t.Logf("%s %s: stopped after %v", op, name, took)
			if bound := deadlineOverrun * deadline; took > bound {
				t.Errorf("%s %s: stopped after %v, want within %v", op, name, took, bound)
			}
		}
	}
}

// deadlineSentence holds a ∀∃⁵ sentence over lt whose Cooper elimination
// runs for seconds; the deadline tests here and in internal/server read it.
const deadlineSentence = "testdata/deadline_sentence.txt"

// TestRelativeSafetyFallsBackToCooper: the automaton of a six-way join
// over a four-row R passes autarith's size cap, so relative safety decides
// it by the finitization criterion on Cooper, and answers with Cooper's
// verdict.
func TestRelativeSafetyFallsBackToCooper(t *testing.T) {
	t.Parallel()
	d := MustLookup("presburger")
	st, err := ParseState(d, []byte(`{"relations": {"R": [["1"], ["4"], ["9"], ["16"]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	f, err := d.Parse("R(a) & R(b) & R(c) & R(d) & R(e) & R(g)")
	if err != nil {
		t.Fatal(err)
	}
	pure, err := query.Translate(d.Domain, st, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := autarith.Compile(context.Background(), pure); !errors.Is(err, autarith.ErrTooLarge) {
		t.Fatalf("automaton of the join: %v, want the size cap's refusal", err)
	}
	if v, err := RelativeSafety(d, st, f); err != nil || v != Holds {
		t.Fatalf("relative safety of the join: %v %v, want holds", v, err)
	}
}

// TestRelativeSafetyWideModulusAnswers: a lone divisibility atom with a
// modulus in the thousands is infinite in the empty state, and the
// automaton answers so: its residual atom has at most 2d states and the
// sink, within the cap. The atom it replaced paired each residue with a
// bit weight, up to d·ord_d(2) states, which the cap refused, and Cooper's
// size guard then refused the finitization criterion too.
func TestRelativeSafetyWideModulusAnswers(t *testing.T) {
	t.Parallel()
	d := MustLookup("presburger")
	for _, src := range []string{"dvd(2500, x)", "dvd(10000, x)", "dvd(40000, x)"} {
		f, err := d.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		v, err := RelativeSafety(d, NewState(MustScheme(map[string]int{})), f)
		took := time.Since(start)
		if err != nil || v != Fails {
			t.Errorf("relative safety of %s: %v %v, want fails", src, v, err)
		}
		t.Logf("%s answered after %v", src, took)
		if bound := deadlineOverrun * 500 * time.Millisecond; took > bound {
			t.Errorf("%s answered after %v, want within %v", src, took, bound)
		}
	}
}

// TestRelativeSafetyWideBoundarySetEnds: the automaton of
// lt(x, 9) & dvd(65537, x) passes the cap (its residual atom alone has
// 65,537 states), so Cooper's finitization criterion takes it, whose
// boundary set holds ~65,537 terms. Deduplicating them pairwise ran 16 s
// before the size guard refused the step; keyed, the guard's error or a
// verdict comes within deadlineOverrun seconds.
func TestRelativeSafetyWideBoundarySetEnds(t *testing.T) {
	t.Parallel()
	d := MustLookup("presburger")
	f, err := d.Parse("lt(x, 9) & dvd(65537, x)")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	v, err := RelativeSafety(d, NewState(MustScheme(map[string]int{})), f)
	took := time.Since(start)
	if err != nil && !errors.Is(err, presburger.ErrTooLarge) || err == nil && v != Holds {
		t.Errorf("relative safety: %v %v, want holds or the size guard", v, err)
	}
	t.Logf("answered after %v: %v %v", took, v, err)
	if bound := deadlineOverrun * time.Second; took > bound {
		t.Errorf("answered after %v, want within %v", took, bound)
	}
}

// TestNoQStatsRecordsNoRow: an evaluation whose run configuration sets
// NoQStats leaves no row in the per-query stats registry; the default
// records one.
func TestNoQStatsRecordsNoRow(t *testing.T) {
	t.Parallel()
	d := MustLookup("presburger")
	hasRow := func(f *Formula) bool {
		for _, e := range qstats.Default().Take().Entries {
			if e.Key == f.CanonicalKey() {
				return true
			}
		}
		return false
	}
	for _, c := range []struct {
		cfg  runcfg.Config
		want bool
	}{{runcfg.Config{NoQStats: true}, false}, {runcfg.Config{}, true}} {
		// A constant no other run uses keeps the key fresh, also under
		// -count.
		f, err := d.Parse(fmt.Sprintf("lt(x, %d)", time.Now().UnixNano()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Eval(runcfg.With(context.Background(), c.cfg), Request{Domain: d.Name, Formula: f}); err != nil {
			t.Fatal(err)
		}
		if got := hasRow(f); got != c.want {
			t.Errorf("%+v: stats row recorded = %v, want %v", c.cfg, got, c.want)
		}
	}
}

func TestStateJSONRoundTrip(t *testing.T) {
	d := MustLookup("traces")
	data := []byte(`{
		"relations": {"Runs": [["*", "1"], ["*", "1&"]]},
		"constants": {"c": "11"}
	}`)
	st, err := ParseState(d, data)
	if err != nil {
		t.Fatalf("ParseState: %v", err)
	}
	rel, err := st.Relation("Runs")
	if err != nil || rel.Len() != 2 || rel.Arity() != 2 {
		t.Fatalf("relation wrong: %v %v", rel, err)
	}
	v, err := st.Constant("c")
	if err != nil || v.Key() != "11" {
		t.Fatalf("constant wrong: %v %v", v, err)
	}
	out, err := MarshalState(d, st)
	if err != nil {
		t.Fatalf("MarshalState: %v", err)
	}
	st2, err := ParseState(d, out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	rel2, _ := st2.Relation("Runs")
	if rel2.Len() != 2 {
		t.Errorf("round trip lost rows")
	}
}

func TestStateJSONErrors(t *testing.T) {
	d := MustLookup("presburger")
	bad := []string{
		`{`,
		`{"relations": {"R": []}}`, // arity unknown
		`{"relations": {"R": [["1"], ["1","2"]]}}`,     // ragged
		`{"relations": {"R": [["x"]]}}`,                // bad numeral
		`{"constants": {"c": "abc"}, "relations": {}}`, // bad constant value
	}
	for _, src := range bad {
		if _, err := ParseState(d, []byte(src)); err == nil {
			t.Errorf("ParseState(%s) accepted", src)
		}
	}
}

func TestFacadeTraces(t *testing.T) {
	// The Theorem 3.1/3.3 surface.
	f, st, err := HaltingToRelativeSafety("*", "1")
	if err != nil {
		t.Fatal(err)
	}
	d := MustLookup("traces")
	v, err := RelativeSafety(d, st, f)
	if err != nil || v != Holds {
		t.Errorf("zero-rule machine halts: %v %v", v, err)
	}
	q := TotalityQuery("*")
	if !strings.Contains(q.String(), "P(") {
		t.Errorf("totality query shape: %v", q)
	}
	cand, err := d.ParseWithConstants(`T(x) & m(x) = "*" & w(x) = c`, "c")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := VerifyTotality(context.Background(), "*", cand)
	if err != nil || !ok {
		t.Errorf("VerifyTotality: %v %v", ok, err)
	}
	if TotalityScheme() == nil {
		t.Errorf("scheme nil")
	}
}

func TestFinitizeFacade(t *testing.T) {
	d := MustLookup("presburger")
	f, err := d.Parse("~R(x)")
	if err != nil {
		t.Fatal(err)
	}
	g := Finitize(f)
	if g.Equal(f) {
		t.Errorf("finitization should extend the formula")
	}
	st := NewState(MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", Nat(1)); err != nil {
		t.Fatal(err)
	}
	v, err := RelativeSafety(d, st, g)
	if err != nil || v != Holds {
		t.Errorf("finitization not finite: %v %v", v, err)
	}
}
