package traces

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/turing"
)

func decide(t *testing.T, f *logic.Formula) bool {
	t.Helper()
	v, err := Decider().Decide(context.Background(), f)
	if err != nil {
		t.Fatalf("Decide(%v): %v", f, err)
	}
	return v
}

func TestEliminateProducesQF(t *testing.T) {
	enc := turing.Encode(turing.BusyWork(2))
	formulas := []*logic.Formula{
		logic.Exists("x", logic.Atom(PredM, logic.Var("x"))),
		logic.Forall("x", logic.Or(
			logic.Atom(PredM, logic.Var("x")), logic.Atom(PredW, logic.Var("x")),
			logic.Atom(PredT, logic.Var("x")), logic.Atom(PredO, logic.Var("x")))),
		logic.Exists("x", logic.Atom(PredP, logic.Const(enc), logic.Const("1"), logic.Var("x"))),
		logic.Exists("x", logic.And(
			logic.Atom(PredT, logic.Var("x")),
			logic.Eq(logic.App(FuncM, logic.Var("x")), logic.Var("y")))),
	}
	e := Eliminator{}
	for _, f := range formulas {
		g, err := e.Eliminate(context.Background(), f)
		if err != nil {
			t.Fatalf("Eliminate(%v): %v", f, err)
		}
		if !g.QuantifierFree() {
			t.Errorf("Eliminate(%v) left quantifiers: %v", f, g)
		}
	}
}

func TestDecideSortSentences(t *testing.T) {
	x := logic.Var("x")
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		{logic.Exists("x", logic.Atom(PredM, x)), true},
		{logic.Exists("x", logic.Atom(PredW, x)), true},
		{logic.Exists("x", logic.Atom(PredT, x)), true},
		{logic.Exists("x", logic.Atom(PredO, x)), true},
		// Sorts are disjoint.
		{logic.Exists("x", logic.And(logic.Atom(PredM, x), logic.Atom(PredW, x))), false},
		{logic.Exists("x", logic.And(logic.Atom(PredT, x), logic.Atom(PredO, x))), false},
		// Sorts cover the universe.
		{logic.Forall("x", logic.Or(
			logic.Atom(PredM, x), logic.Atom(PredW, x),
			logic.Atom(PredT, x), logic.Atom(PredO, x))), true},
		// The extraction functions land in W / M.
		{logic.Forall("x", logic.Atom(PredW, logic.App(FuncW, x))), true},
		{logic.Forall("x", logic.Implies(logic.Atom(PredT, x),
			logic.Atom(PredM, logic.App(FuncM, x)))), true},
		// m(x) is ε off traces, and ε is an input word, not a machine.
		{logic.Forall("x", logic.Atom(PredM, logic.App(FuncM, x))), false},
		// There are at least two distinct machines.
		{logic.ExistsAll([]string{"x", "y"}, logic.And(
			logic.Atom(PredM, x), logic.Atom(PredM, logic.Var("y")),
			logic.Neq(x, logic.Var("y")))), true},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestDecidePSentences(t *testing.T) {
	busy := turing.Encode(turing.BusyWork(2)) // exactly 3 traces on any input
	loop := turing.Encode(turing.LoopForever())
	x := logic.Var("x")
	pAtom := func(m, w string) *logic.Formula {
		return logic.Atom(PredP, logic.Const(m), logic.Const(w), x)
	}
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		{logic.Exists("x", pAtom(busy, "1")), true},
		{logic.Exists("x", pAtom(loop, "1")), true},
		// P requires a machine in the first slot.
		{logic.Exists("x", pAtom("11", "1")), false},
		// P requires an input word in the second slot.
		{logic.Exists("x", pAtom(busy, "1*")), false},
		// Every trace of P is in sort T.
		{logic.Forall("x", logic.Implies(pAtom(busy, "1"), logic.Atom(PredT, x))), true},
		// Traces determine their machine.
		{logic.Forall("x", logic.Implies(pAtom(busy, "1"),
			logic.Eq(logic.App(FuncM, x), logic.Const(busy)))), true},
		{logic.Forall("x", logic.Implies(pAtom(busy, "1"),
			logic.Eq(logic.App(FuncM, x), logic.Const(loop)))), false},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

// TestDecideTraceCounting exercises case T-4: BusyWork(2) has exactly three
// traces on "1", so a fourth distinct trace does not exist.
func TestDecideTraceCounting(t *testing.T) {
	m := turing.BusyWork(2)
	enc := turing.Encode(m)
	all := turing.Traces(m, enc, "1", 10)
	if len(all) != 3 {
		t.Fatalf("want 3 traces, got %d", len(all))
	}
	x := logic.Var("x")
	p := logic.Atom(PredP, logic.Const(enc), logic.Const("1"), x)
	build := func(excl []string) *logic.Formula {
		conj := []*logic.Formula{p}
		for _, tr := range excl {
			conj = append(conj, logic.Neq(x, logic.Const(tr)))
		}
		return logic.Exists("x", logic.And(conj...))
	}
	if !decide(t, build(all[:2])) {
		t.Errorf("a third trace should exist beyond two exclusions")
	}
	if decide(t, build(all)) {
		t.Errorf("no fourth trace should exist")
	}
	// Excluding a non-trace word or a trace of another machine changes
	// nothing.
	other, err := turing.Trace(turing.LoopForever(), turing.Encode(turing.LoopForever()), "1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if decide(t, build(append(append([]string{}, all...), "11", other))) {
		t.Errorf("irrelevant exclusions should not create new traces")
	}
	if !decide(t, build([]string{all[0], all[1], "11", other})) {
		t.Errorf("two real exclusions still leave a trace")
	}
}

// TestDecideDiverging: a diverging machine has more traces than any finite
// exclusion list.
func TestDecideDiverging(t *testing.T) {
	m := turing.LoopForever()
	enc := turing.Encode(m)
	all := turing.Traces(m, enc, "&", 5)
	x := logic.Var("x")
	conj := []*logic.Formula{logic.Atom(PredP, logic.Const(enc), logic.Const("&"), x)}
	for _, tr := range all {
		conj = append(conj, logic.Neq(x, logic.Const(tr)))
	}
	if !decide(t, logic.Exists("x", logic.And(conj...))) {
		t.Errorf("diverging machine should always have another trace")
	}
}

func TestDecideLemmaA2Sentences(t *testing.T) {
	x := logic.Var("x")
	de := func(pred, w string) *logic.Formula {
		return logic.Atom(pred, x, logic.Const(w))
	}
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		// Compatible system.
		{logic.Exists("x", logic.And(logic.Atom(PredM, x),
			de("E2", "11"), de("D3", "1&"))), true},
		// Paper condition 1 conflict: D_3 vs E_2 sharing length-2 prefix.
		{logic.Exists("x", logic.And(logic.Atom(PredM, x),
			de("E2", "1&"), de("D3", "1&1"))), false},
		// Paper condition 2 conflict.
		{logic.Exists("x", logic.And(logic.Atom(PredM, x),
			de("E2", "11"), de("E3", "11&"))), false},
		// Without the sort atom the quantifier still works (only sort M
		// contributes).
		{logic.Exists("x", logic.And(de("E2", "11"), de("E2", "&&"))), true},
		// Negated D: machine halting before step 2 on "11" exists.
		{logic.Exists("x", logic.And(logic.Atom(PredM, x),
			logic.Not(de("D3", "11")))), true},
		// E and its negation conflict.
		{logic.Exists("x", logic.And(de("E2", "11"), logic.Not(de("E2", "11")))), false},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestDecideBSentences(t *testing.T) {
	x := logic.Var("x")
	b := func(s string) *logic.Formula { return logic.Atom(PredB, logic.Const(s), x) }
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		{logic.Exists("x", b("11")), true},
		// Compatible prefixes (one refines the other).
		{logic.Exists("x", logic.And(b("1"), b("1&"))), true},
		// Incompatible same-length prefixes.
		{logic.Exists("x", logic.And(b("11"), b("1&"))), false},
		// Incompatible: "1&" vs effective prefix "11…".
		{logic.Exists("x", logic.And(b("11"), b("1&&"))), false},
		// ¬B expansion: some word is in neither class… of two distinct
		// prefixes of length 2: yes (there are four classes).
		{logic.Exists("x", logic.And(logic.Atom(PredW, x),
			logic.Not(b("11")), logic.Not(b("1&")))), true},
		// But a word escapes no full partition: ¬B over both length-1
		// classes is empty.
		{logic.Exists("x", logic.And(logic.Atom(PredW, x),
			logic.Not(b("1")), logic.Not(b("&")))), false},
		// Every input word is in the B_ε class.
		{logic.Forall("x", logic.Implies(logic.Atom(PredW, x), b(""))), true},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestDecideMixedQuantifiers(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		// Every machine has a trace (on some input).
		{logic.Forall("x", logic.Implies(logic.Atom(PredM, x),
			logic.Exists("p", logic.And(logic.Atom(PredT, logic.Var("p")),
				logic.Eq(logic.App(FuncM, logic.Var("p")), x))))), true},
		// Every trace has an input word.
		{logic.Forall("x", logic.Implies(logic.Atom(PredT, x),
			logic.Exists("y", logic.And(logic.Atom(PredW, y),
				logic.Eq(logic.App(FuncW, x), y))))), true},
		// There is a machine tracing every input word (any machine does).
		{logic.Exists("x", logic.And(logic.Atom(PredM, x),
			logic.Forall("y", logic.Implies(logic.Atom(PredW, y),
				logic.Exists("p", logic.And(
					logic.Eq(logic.App(FuncM, logic.Var("p")), x),
					logic.Eq(logic.App(FuncW, logic.Var("p")), y),
					logic.Atom(PredT, logic.Var("p")))))))), true},
		// No input word is a trace of itself (sorts are disjoint).
		{logic.Exists("x", logic.And(logic.Atom(PredW, x), logic.Atom(PredT, x))), false},
		// For every word there is a different word.
		{logic.Forall("x", logic.Exists("y", logic.Neq(x, y))), true},
		// Some word equals every word: false.
		{logic.Exists("x", logic.Forall("y", logic.Eq(x, y))), false},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestDecideGroundSentences(t *testing.T) {
	busy := turing.Encode(turing.BusyWork(2))
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		{logic.Atom("E3", logic.Const(busy), logic.Const("1")), true},
		{logic.Atom("E2", logic.Const(busy), logic.Const("1")), false},
		{logic.Atom(PredM, logic.Const(busy)), true},
		{logic.Atom(PredB, logic.Const("1"), logic.Const("1&")), true},
		{logic.Eq(logic.Const("11"), logic.Const("11")), true},
		{logic.Eq(logic.Const("11"), logic.Const("1")), false},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestEliminateRejectsBadInput(t *testing.T) {
	e := Eliminator{}
	bad := []*logic.Formula{
		logic.Atom("Q", logic.Var("x")),                          // unknown predicate
		logic.Atom(PredM, logic.Const("abc")),                    // constant outside alphabet
		logic.Atom(PredB, logic.Var("s"), logic.Var("x")),        // non-constant B index is fine while x-free…
		logic.Eq(logic.App("f", logic.Var("x")), logic.Var("x")), // unknown function
	}
	for i, f := range bad {
		if i == 2 {
			// B with variable index is only rejected when the quantifier
			// forces specialization.
			g := logic.Exists("x", f)
			if _, err := e.Eliminate(context.Background(), g); err == nil {
				t.Errorf("Eliminate(%v) should fail", g)
			}
			continue
		}
		if _, err := e.Eliminate(context.Background(), f); err == nil {
			t.Errorf("Eliminate(%v) should fail", f)
		}
	}
}

// TestExpressB verifies the appendix's expressibility claim: the
// original-signature formula built from the reader machine agrees with the
// B predicate on concrete words.
func TestExpressB(t *testing.T) {
	prefixes := []string{"", "1", "&", "1&"}
	words := []string{"", "1", "&", "11", "1&", "&1", "1&1"}
	for _, s := range prefixes {
		f, err := ExpressB(s, "x")
		if err != nil {
			t.Fatalf("ExpressB(%q): %v", s, err)
		}
		for _, w := range words {
			sentence := logic.Subst(f, "x", logic.Const(w))
			got := decide(t, sentence)
			want := B(s, w)
			if got != want {
				t.Errorf("ExpressB(%q) on %q = %v, want %v", s, w, got, want)
			}
		}
	}
	// Non-words never satisfy the formula.
	f, err := ExpressB("1", "x")
	if err != nil {
		t.Fatal(err)
	}
	if decide(t, logic.Subst(f, "x", logic.Const("*"))) {
		t.Errorf("machines are not in any B class")
	}
	if _, err := ExpressB("1*", "x"); err == nil {
		t.Errorf("ExpressB should reject non-input prefixes")
	}
}

// TestDecideConsistency: Decide(¬φ) = ¬Decide(φ) on random sentences.
func TestDecideConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dec := Decider()
	for i := 0; i < 60; i++ {
		f := randTraceSentence(rng, 2)
		v, err := dec.Decide(context.Background(), f)
		if err != nil {
			t.Fatalf("Decide(%v): %v", f, err)
		}
		nv, err := dec.Decide(context.Background(), logic.Not(f))
		if err != nil {
			t.Fatalf("Decide(¬%v): %v", f, err)
		}
		if v == nv {
			t.Errorf("Decide(%v) = Decide(its negation) = %v", f, v)
		}
	}
}

// TestDecideWitnessSoundness: if a brute-force search over a rich candidate
// set finds a witness for ∃x ψ(x), the decision procedure must agree; dually
// for counterexamples to ∀x ψ(x).
func TestDecideWitnessSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dec := Decider()
	candidates := witnessCandidates()
	for i := 0; i < 120; i++ {
		body := randTraceBody(rng, 2, "x")
		found := false
		for _, c := range candidates {
			sub := logic.Subst(body, "x", logic.Const(c))
			v, err := domain.EvalQF(Domain{}, domain.Env{}, sub)
			if err != nil {
				t.Fatalf("EvalQF: %v (formula %v)", err, sub)
			}
			if v {
				found = true
				break
			}
		}
		if found {
			v, err := dec.Decide(context.Background(), logic.Exists("x", body))
			if err != nil {
				t.Fatalf("Decide: %v (body %v)", err, body)
			}
			if !v {
				t.Fatalf("witness exists for %v but Decide says false", body)
			}
			v, err = dec.Decide(context.Background(), logic.Forall("x", logic.Not(body)))
			if err != nil {
				t.Fatalf("Decide: %v", err)
			}
			if v {
				t.Fatalf("∀¬ should fail when a witness exists: %v", body)
			}
		}
	}
}

// witnessCandidates is a cross-section of the universe: short words of all
// four classes, machines from the library, and their traces.
func witnessCandidates() []string {
	out := []string{"", "1", "&", "11", "1&", "&&", "*", "|", "||", "1*", "1|"}
	machines := []*turing.Machine{
		turing.HaltImmediately(), turing.LoopForever(), turing.BusyWork(1),
		turing.BusyWork(2), turing.Successor(),
	}
	for _, m := range machines {
		enc := turing.Encode(m)
		out = append(out, enc)
		for _, w := range []string{"", "1", "1&"} {
			out = append(out, turing.Traces(m, enc, w, 2)...)
		}
	}
	return out
}

// randTraceBody generates a random quantifier-free formula over the Reach
// signature with one free variable.
func randTraceBody(rng *rand.Rand, depth int, x string) *logic.Formula {
	xt := logic.Var(x)
	busy := turing.Encode(turing.BusyWork(1))
	terms := []logic.Term{
		xt, logic.Const(""), logic.Const("1"), logic.Const(busy),
		logic.App(FuncW, xt), logic.App(FuncM, xt),
	}
	randTerm := func() logic.Term { return terms[rng.Intn(len(terms))] }
	atom := func() *logic.Formula {
		switch rng.Intn(6) {
		case 0:
			sorts := []string{PredM, PredW, PredT, PredO}
			return logic.Atom(sorts[rng.Intn(4)], randTerm())
		case 1:
			return logic.Eq(randTerm(), randTerm())
		case 2:
			prefixes := []string{"", "1", "&", "11"}
			return logic.Atom(PredB, logic.Const(prefixes[rng.Intn(4)]), randTerm())
		case 3:
			return logic.Atom(DEName(rng.Intn(2) == 0, 1+rng.Intn(3)), randTerm(), randTerm())
		default:
			return logic.Atom(PredP, randTerm(), randTerm(), randTerm())
		}
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(5) {
	case 0:
		return atom()
	case 1:
		return logic.Not(randTraceBody(rng, depth-1, x))
	case 2:
		return logic.And(randTraceBody(rng, depth-1, x), randTraceBody(rng, depth-1, x))
	case 3:
		return logic.Or(randTraceBody(rng, depth-1, x), randTraceBody(rng, depth-1, x))
	default:
		return logic.Implies(randTraceBody(rng, depth-1, x), randTraceBody(rng, depth-1, x))
	}
}

// randTraceSentence closes a random body under a random quantifier, possibly
// nesting two.
func randTraceSentence(rng *rand.Rand, depth int) *logic.Formula {
	inner := randTraceBody(rng, depth, "x")
	if rng.Intn(2) == 0 {
		inner = logic.And(inner, randTraceBody2(rng, depth, "x", "y"))
		if rng.Intn(2) == 0 {
			inner = logic.Exists("y", inner)
		} else {
			inner = logic.Forall("y", inner)
		}
	}
	if rng.Intn(2) == 0 {
		return logic.Exists("x", inner)
	}
	return logic.Forall("x", inner)
}

// randTraceBody2 mixes two variables.
func randTraceBody2(rng *rand.Rand, depth int, x, y string) *logic.Formula {
	atom := func() *logic.Formula {
		xt, yt := logic.Var(x), logic.Var(y)
		switch rng.Intn(4) {
		case 0:
			return logic.Eq(xt, yt)
		case 1:
			return logic.Eq(logic.App(FuncW, xt), yt)
		case 2:
			return logic.Atom(DEName(false, 1+rng.Intn(2)), xt, yt)
		default:
			return logic.Atom(PredP, xt, yt, logic.Var("x"))
		}
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(4) {
	case 0:
		return atom()
	case 1:
		return logic.Not(randTraceBody2(rng, depth-1, x, y))
	case 2:
		return logic.And(randTraceBody2(rng, depth-1, x, y), randTraceBody(rng, depth-1, x))
	default:
		return logic.Or(randTraceBody2(rng, depth-1, x, y), randTraceBody(rng, depth-1, y))
	}
}

func TestEnumerator(t *testing.T) {
	d := Domain{}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		w := d.Element(i).Key()
		if !ValidWord(w) {
			t.Fatalf("Element(%d) = %q outside alphabet", i, w)
		}
		if seen[w] {
			t.Fatalf("Element(%d) = %q repeated", i, w)
		}
		seen[w] = true
	}
	// Lengths are non-decreasing and the first few elements are as expected.
	if d.Element(0).Key() != "" {
		t.Errorf("Element(0) should be the empty word")
	}
	if d.Element(1).Key() != "1" || d.Element(4).Key() != "|" {
		t.Errorf("length-1 block wrong: %q … %q", d.Element(1).Key(), d.Element(4).Key())
	}
	if d.Element(5).Key() != "11" {
		t.Errorf("length-2 block starts at %q", d.Element(5).Key())
	}
}

func TestDomainInterp(t *testing.T) {
	d := Domain{}
	if _, err := d.ConstValue("abc"); err == nil {
		t.Errorf("bad constant accepted")
	}
	v, err := d.ConstValue("1&")
	if err != nil || v.Key() != "1&" {
		t.Errorf("ConstValue: %v %v", v, err)
	}
	if d.ConstName(domain.Word("1")) != "1" {
		t.Errorf("ConstName wrong")
	}
	if _, err := d.Func("w", []domain.Value{domain.Word("1"), domain.Word("1")}); err == nil {
		t.Errorf("arity error not caught")
	}
	if _, err := d.Func("q", []domain.Value{domain.Word("1")}); err == nil {
		t.Errorf("unknown function accepted")
	}
	if _, err := d.Pred("Zk", []domain.Value{domain.Word("1")}); err == nil {
		t.Errorf("unknown predicate accepted")
	}
	if _, err := d.Pred("P", []domain.Value{domain.Word("1")}); err == nil {
		t.Errorf("P arity error not caught")
	}
}

func TestParseDE(t *testing.T) {
	cases := []struct {
		name  string
		exact bool
		idx   int
		ok    bool
	}{
		{"D1", false, 1, true},
		{"E7", true, 7, true},
		{"D12", false, 12, true},
		{"D0", false, 0, false},
		{"D01", false, 0, false},
		{"D", false, 0, false},
		{"F3", false, 0, false},
		{"Dx", false, 0, false},
	}
	for _, c := range cases {
		exact, idx, ok := ParseDE(c.name)
		if ok != c.ok || (ok && (exact != c.exact || idx != c.idx)) {
			t.Errorf("ParseDE(%q) = %v %d %v", c.name, exact, idx, ok)
		}
	}
	if DEName(true, 3) != "E3" || DEName(false, 10) != "D10" {
		t.Errorf("DEName wrong")
	}
}

func TestEliminateIdempotentOnQF(t *testing.T) {
	e := Eliminator{}
	f := logic.And(
		logic.Atom(PredM, logic.Var("x")),
		logic.Atom("D2", logic.Var("x"), logic.Const("1")))
	g, err := e.Eliminate(context.Background(), f)
	if err != nil {
		t.Fatalf("Eliminate: %v", err)
	}
	h, err := e.Eliminate(context.Background(), g)
	if err != nil {
		t.Fatalf("second Eliminate: %v", err)
	}
	if !h.Equal(g) {
		t.Errorf("not idempotent: %v vs %v", g, h)
	}
}

func TestDecideErrorOnOpenFormula(t *testing.T) {
	if _, err := Decider().Decide(context.Background(), logic.Atom(PredM, logic.Var("x"))); err == nil {
		t.Errorf("open formula accepted")
	}
}

func ExampleDecider() {
	// "Some machine halts on input 1 after exactly one step."
	f := logic.Exists("x", logic.And(
		logic.Atom(PredM, logic.Var("x")),
		logic.Atom("E2", logic.Var("x"), logic.Const("1")),
	))
	v, _ := Decider().Decide(context.Background(), f)
	fmt.Println(v)
	// Output: true
}
