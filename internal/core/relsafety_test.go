package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/autarith"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/nsucc"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/parser"
	"repro/internal/presburger"
	"repro/internal/query"
	"repro/internal/traces"
	"repro/internal/turing"
)

func eqState(t *testing.T) *db.State {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for _, pair := range [][2]string{{"adam", "abel"}, {"adam", "cain"}, {"cain", "enoch"}} {
		if err := st.Insert("F", domain.Word(pair[0]), domain.Word(pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestRelativeSafetyEq(t *testing.T) {
	st := eqState(t)
	cases := []struct {
		src    string
		finite bool
	}{
		{"F(x, y)", true},
		{"~F(x, y)", false},
		{"exists y. F(x, y)", true},
		{"x != x", true}, // empty answer
		{"x = x", false}, // everything
		{`x = "adam"`, true},
		{`x != "adam"`, false},
		// M(x) ∨ G(x,z): adam has two sons, so infinite (footnote 4).
		{"(exists y. (exists w. (y != w & F(x, y) & F(x, w)))) | (exists y. (F(x, y) & F(y, z)))", false},
		// Needs two distinct fresh elements: x ≠ y with both loose.
		{"x != y", false},
		// Boolean queries are always finite.
		{"exists x. F(x, x)", true},
	}
	for _, c := range cases {
		f := parser.MustParse(c.src)
		finite, err := RelativeSafetyEq(context.Background(), st, f)
		if err != nil {
			t.Fatalf("RelativeSafetyEq(%s): %v", c.src, err)
		}
		if finite != c.finite {
			t.Errorf("RelativeSafetyEq(%s) = %v, want %v", c.src, finite, c.finite)
		}
	}
}

func TestRelativeSafetyEqStateSensitivity(t *testing.T) {
	// The M(x) ∨ G(x,z) disjunction is finite exactly when nobody has two
	// sons — relative safety is a property of the state, not the formula.
	src := "(exists y. (exists w. (y != w & F(x, y) & F(x, w)))) | (exists y. (F(x, y) & F(y, z)))"
	f := parser.MustParse(src)
	single := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for _, pair := range [][2]string{{"adam", "cain"}, {"cain", "enoch"}} {
		if err := single.Insert("F", domain.Word(pair[0]), domain.Word(pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	finite, err := RelativeSafetyEq(context.Background(), single, f)
	if err != nil {
		t.Fatal(err)
	}
	if !finite {
		t.Errorf("no twin sons: disjunction should be finite")
	}
}

func TestRelativeSafetyNsucc(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, n := range []int64{3, 10} {
		if err := st.Insert("R", domain.Int(n)); err != nil {
			t.Fatal(err)
		}
	}
	s := func(t logic.Term) logic.Term { return logic.App(nsucc.FuncS, t) }
	x, y := logic.Var("x"), logic.Var("y")
	cases := []struct {
		f      *logic.Formula
		finite bool
	}{
		{logic.Atom("R", x), true},
		{logic.Not(logic.Atom("R", x)), false},
		// Successors of stored values: finite.
		{logic.Exists("y", logic.And(logic.Atom("R", y), logic.Eq(x, s(y)))), true},
		// Predecessors of stored values: finite.
		{logic.Exists("y", logic.And(logic.Atom("R", y), logic.Eq(s(x), y))), true},
		// A fixed disequality: infinite.
		{logic.Neq(x, logic.Const("5")), false},
		// Two free variables chained by successor, unanchored: infinite.
		{logic.Eq(s(x), y), false},
		// …anchored to the database: finite.
		{logic.And(logic.Eq(s(x), y), logic.Atom("R", y)), true},
		// Constant equations.
		{logic.Eq(s(s(x)), logic.Const("7")), true},
		{logic.Eq(s(s(x)), logic.Const("1")), true}, // empty answer
		// Boolean.
		{logic.Exists("x", logic.Atom("R", x)), true},
	}
	for _, c := range cases {
		finite, err := RelativeSafetyNsucc(context.Background(), st, c.f)
		if err != nil {
			t.Fatalf("RelativeSafetyNsucc(%v): %v", c.f, err)
		}
		if finite != c.finite {
			t.Errorf("RelativeSafetyNsucc(%v) = %v, want %v", c.f, finite, c.finite)
		}
	}
}

func TestTheorem33ReductionFidelity(t *testing.T) {
	halting := []struct {
		m     *turing.Machine
		input string
	}{
		{turing.HaltImmediately(), ""},
		{turing.BusyWork(3), "1"},
		{turing.Successor(), "111"},
		{turing.EraseAndHalt(), "11"},
		{turing.HaltIffStartsWithOne(), "1&"},
	}
	for _, c := range halting {
		enc := turing.Encode(c.m)
		f, st, err := HaltingToRelativeSafety(enc, c.input)
		if err != nil {
			t.Fatalf("reduction: %v", err)
		}
		v, err := RelativeSafetyTraces(st, f, DefaultTracesBudget)
		if err != nil {
			t.Fatalf("RelativeSafetyTraces: %v", err)
		}
		if v != domain.Holds {
			t.Errorf("halting instance (%v on %q) verdict %v, want holds", c.m, c.input, v)
		}
	}
	diverging := []struct {
		m     *turing.Machine
		input string
	}{
		{turing.LoopForever(), "1"},
		{turing.LoopForever(), ""},
		{turing.HaltIffStartsWithOne(), "&1"},
		{turing.HaltIffStartsWithOne(), ""},
	}
	for _, c := range diverging {
		enc := turing.Encode(c.m)
		f, st, err := HaltingToRelativeSafety(enc, c.input)
		if err != nil {
			t.Fatalf("reduction: %v", err)
		}
		v, err := RelativeSafetyTraces(st, f, DefaultTracesBudget)
		if err != nil {
			t.Fatalf("RelativeSafetyTraces: %v", err)
		}
		if v != domain.Fails {
			t.Errorf("diverging instance (%v on %q) verdict %v, want fails", c.m, c.input, v)
		}
	}
}

func TestTheorem33ReductionValidation(t *testing.T) {
	if _, _, err := HaltingToRelativeSafety("junk", "1"); err == nil {
		t.Errorf("bad machine accepted")
	}
	if _, _, err := HaltingToRelativeSafety(turing.Encode(turing.LoopForever()), "1*"); err == nil {
		t.Errorf("bad input accepted")
	}
}

func TestRelativeSafetyTracesUnknownShapes(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{}))
	// A query that is not of the canonical P shape: Unknown.
	f := logic.Atom(traces.PredM, logic.Var("x"))
	v, err := RelativeSafetyTraces(st, f, DefaultTracesBudget)
	if err != nil {
		t.Fatalf("RelativeSafetyTraces: %v", err)
	}
	if v != domain.Unknown {
		t.Errorf("non-canonical shape verdict %v, want unknown", v)
	}
	// P with a non-machine constant: identically false, hence finite.
	g := logic.Atom(traces.PredP, logic.Const("11"), logic.Const("1"), logic.Var("x"))
	v, err = RelativeSafetyTraces(st, g, DefaultTracesBudget)
	if err != nil {
		t.Fatalf("RelativeSafetyTraces: %v", err)
	}
	if v != domain.Holds {
		t.Errorf("false query verdict %v, want holds", v)
	}
}

// TestTheorem33Semantics checks the reduction's defining equivalence
// directly: the answer of P(M, c, x) in state c = w is the set of traces of
// M on w, which is finite iff M halts on w.
func TestTheorem33Semantics(t *testing.T) {
	m := turing.BusyWork(2)
	enc := turing.Encode(m)
	f, st, err := HaltingToRelativeSafety(enc, "1")
	if err != nil {
		t.Fatal(err)
	}
	// All three traces satisfy the query; a foreign trace does not.
	all := turing.Traces(m, enc, "1", 10)
	if len(all) != 3 {
		t.Fatalf("want 3 traces")
	}
	cVal, err := st.Constant(DBConst)
	if err != nil || cVal.Key() != "1" {
		t.Fatalf("state constant: %v %v", cVal, err)
	}
	dec := traces.Decider()
	for _, tr := range all {
		pureF := logic.SubstConst(logic.Subst(f, "x", logic.Const(tr)), DBConst, logic.Const("1"))
		v, err := dec.Decide(context.Background(), pureF)
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		if !v {
			t.Errorf("trace %q should satisfy the query", tr)
		}
	}
	foreign, err := turing.Trace(m, enc, "11", 1)
	if err != nil {
		t.Fatal(err)
	}
	pureF := logic.SubstConst(logic.Subst(f, "x", logic.Const(foreign)), DBConst, logic.Const("1"))
	v, err := dec.Decide(context.Background(), pureF)
	if err != nil {
		t.Fatal(err)
	}
	if v {
		t.Errorf("trace on a different input must not satisfy the query")
	}
}

// TestRelativeSafetyEnginesAgree: the served Theorem 2.5 decider (the
// automaton of φ′, finite iff its tuple count is) and the finitization
// criterion on Cooper (FinitizationCriterion) agree on seeded random
// queries over a unary R and a binary S, in random states. Where Cooper's
// size guard bails, the served verdict is checked against the §1.1
// enumeration instead, as in TestTheorem25AgainstEnumeration. Bailouts
// must stay rare, as in autarith's TestDifferentialAgainstCooper, and so
// must the automaton's cap refusals, where the served verdict is Cooper's.
func TestRelativeSafetyEnginesAgree(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(25))
	const n = 200
	skipped, refused, finite := 0, 0, 0
	for i := 0; i < n; i++ {
		st := randSafetyState(t, rng)
		f := randSafetyQuery(rng)
		got, err := RelativeSafetyPresburger(ctx, presburger.Domain{}, st, f)
		if err != nil {
			t.Fatalf("%v in %v: %v", f, st, err)
		}
		if got {
			finite++
		}
		pure, err := query.Translate(presburger.Domain{}, st, f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := autarith.Compile(ctx, pure); err != nil {
			refused++
		}
		want, err := FinitizationCriterion(ctx, pure)
		if err != nil {
			skipped++
			ans, err := query.EnumerationAnswerSinkCtx(ctx, presburger.Domain{}, presburger.Decider(), st, f,
				query.EnumerationBudget{Rows: 400, Probe: 1 << 16}, nil)
			if err != nil {
				t.Fatalf("%v in %v: enumeration: %v", f, st, err)
			}
			if got != ans.Complete {
				t.Fatalf("%v in %v: served finite=%v, enumeration complete=%v with %d rows",
					f, st, got, ans.Complete, ans.Rows.Len())
			}
			continue
		}
		if got != want {
			t.Fatalf("%v in %v: served finite=%v, finitization criterion %v", f, st, got, want)
		}
	}
	if skipped > n/10 {
		t.Fatalf("too many Cooper bailouts: %d of %d", skipped, n)
	}
	if refused > n/10 {
		t.Fatalf("too many automaton refusals: %d of %d", refused, n)
	}
	if finite < n/10 || finite > n*9/10 {
		t.Fatalf("unbalanced draw: %d of %d finite", finite, n)
	}
	t.Logf("%d agreed with Cooper (%d finite), %d Cooper bailouts checked by enumeration, %d automaton refusals",
		n-skipped, finite, skipped, refused)
}

// TestRelativeSafetyCancelled: a cancelled context stops relative safety
// with the context's error, also where the automaton builds too few cells
// to poll it, and the query is not handed to Cooper.
func TestRelativeSafetyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	elims := obs.NewCounter("qe.presburger.eliminations")
	before := elims.Value()
	_, err := RelativeSafetyPresburger(ctx, presburger.Domain{}, natState(t, "R", 1, 4), logic.Not(logic.Atom("R", logic.Var("x"))))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled relative safety: %v, want context.Canceled", err)
	}
	if got := elims.Value() - before; got != 0 {
		t.Fatalf("cancelled relative safety ran %d Cooper eliminations", got)
	}
}

// TestRelativeSafetyNamesEngine: with the flight recorder armed, the
// safety.relative span names the engine that decided: the automaton, or
// Cooper's finitization criterion for a six-way join whose automaton
// passes the size cap.
func TestRelativeSafetyNamesEngine(t *testing.T) {
	rec := trace.Default()
	rec.Arm(1 << 10)
	defer rec.Disarm()
	st := natState(t, "R", 1, 4, 9, 16)
	for _, c := range []struct {
		src, engine string
	}{
		{"R(x) | lt(x, 9)", "automaton"},
		{"R(a) & R(b) & R(c) & R(d) & R(e) & R(g)", "cooper"},
	} {
		f, err := parser.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if finite, err := RelativeSafetyPresburger(context.Background(), presburger.Domain{}, st, f); err != nil || !finite {
			t.Fatalf("%s: finite=%v %v, want finite", c.src, finite, err)
		}
		var engine string
		for _, e := range rec.Events() {
			if e.Phase != trace.PhaseEnd || e.Name != "safety.relative" {
				continue
			}
			for _, a := range e.Args {
				if a.Key == "engine" {
					engine = a.Str
				}
			}
		}
		if engine != c.engine {
			t.Errorf("%s: last safety.relative span's engine %q, want %q", c.src, engine, c.engine)
		}
	}
}

// randSafetyState draws R (unary) and S (binary) over small numbers.
func randSafetyState(t *testing.T, rng *rand.Rand) *db.State {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1, "S": 2}))
	for i := 0; i < 1+rng.Intn(4); i++ {
		if err := st.Insert("R", domain.Int(int64(rng.Intn(10)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		if err := st.Insert("S", domain.Int(int64(rng.Intn(10))), domain.Int(int64(rng.Intn(10)))); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// randSafetyQuery draws a query over free x and y (either may vanish) and
// bound z: lt/le/=/dvd/add atoms, R and S atoms, ¬, ∧, ∨ and ∃.
func randSafetyQuery(rng *rand.Rand) *logic.Formula {
	vars := []string{"x", "y", "z"}
	v := func() logic.Term { return logic.Var(vars[rng.Intn(3)]) }
	c := func() logic.Term { return logic.Const(fmt.Sprint(rng.Intn(10))) }
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
		switch rng.Intn(7) {
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
		case 5:
			return logic.Atom(presburger.PredDvd, logic.Const(fmt.Sprint(2+rng.Intn(2))), term())
		}
		return logic.And(logic.Atom("R", v()), logic.Atom(presburger.PredLt, v(), v()))
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
