package parser

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/logic"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want *logic.Formula
	}{
		{"true", logic.True()},
		{"false", logic.False()},
		{"P(x)", logic.Atom("P", logic.Var("x"))},
		{"R(x, y)", logic.Atom("R", logic.Var("x"), logic.Var("y"))},
		{"x = y", logic.Eq(logic.Var("x"), logic.Var("y"))},
		{"x != y", logic.Neq(logic.Var("x"), logic.Var("y"))},
		{"~P(x)", logic.Not(logic.Atom("P", logic.Var("x")))},
		{"P(x) & Q(x)", logic.And(logic.Atom("P", logic.Var("x")), logic.Atom("Q", logic.Var("x")))},
		{"P(x) | Q(x)", logic.Or(logic.Atom("P", logic.Var("x")), logic.Atom("Q", logic.Var("x")))},
		{"P(x) -> Q(x)", logic.Implies(logic.Atom("P", logic.Var("x")), logic.Atom("Q", logic.Var("x")))},
		{"P(x) <-> Q(x)", logic.Iff(logic.Atom("P", logic.Var("x")), logic.Atom("Q", logic.Var("x")))},
		{"exists x. P(x)", logic.Exists("x", logic.Atom("P", logic.Var("x")))},
		{"forall x. P(x)", logic.Forall("x", logic.Atom("P", logic.Var("x")))},
		{"P(5)", logic.Atom("P", logic.Const("5"))},
		{`P("1&*")`, logic.Atom("P", logic.Const("1&*"))},
		{"x = f(y)", logic.Eq(logic.Var("x"), logic.App("f", logic.Var("y")))},
		{"(P(x))", logic.Atom("P", logic.Var("x"))},
		{"P()", logic.Atom("P")},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPrecedence(t *testing.T) {
	// & binds tighter than |, | tighter than ->, -> tighter than <->.
	f := MustParse("P(x) & Q(x) | R(x) -> S(x) <-> T(x)")
	if f.Kind != logic.FIff {
		t.Fatalf("top should be iff: %v", f)
	}
	imp := f.Sub[0]
	if imp.Kind != logic.FImplies {
		t.Fatalf("lhs should be implies: %v", imp)
	}
	or := imp.Sub[0]
	if or.Kind != logic.FOr {
		t.Fatalf("lhs of -> should be or: %v", or)
	}
	if or.Sub[0].Kind != logic.FAnd {
		t.Fatalf("first disjunct should be and: %v", or)
	}
}

func TestImpliesRightAssociative(t *testing.T) {
	f := MustParse("P(x) -> Q(x) -> R(x)")
	if f.Kind != logic.FImplies || f.Sub[1].Kind != logic.FImplies {
		t.Fatalf("-> not right associative: %v", f)
	}
}

func TestQuantifierScope(t *testing.T) {
	// The quantifier body is a unary formula: "exists x. P(x) & Q(x)"
	// parses as (exists x. P(x)) & Q(x); parentheses extend the scope.
	f := MustParse("exists x. P(x) & Q(x)")
	if f.Kind != logic.FAnd {
		t.Fatalf("expected conjunction at top: %v", f)
	}
	g := MustParse("exists x. (P(x) & Q(x))")
	if g.Kind != logic.FExists || g.Sub[0].Kind != logic.FAnd {
		t.Fatalf("parenthesized body should be inside: %v", g)
	}
}

func TestConstantsOption(t *testing.T) {
	opts := Options{Constants: map[string]bool{"c": true}}
	f := MustParseWith("P(c) & P(x)", opts)
	if f.Sub[0].Args[0].Kind != logic.TConst {
		t.Errorf("c should be a constant: %v", f)
	}
	if f.Sub[1].Args[0].Kind != logic.TVar {
		t.Errorf("x should be a variable: %v", f)
	}
}

func TestFunctionsOptionInFormulaPosition(t *testing.T) {
	// With m declared a function, "m(x) = y" must parse m as a function
	// application, not a predicate atom.
	opts := Options{Functions: map[string]bool{"m": true}}
	f, err := ParseWith("m(x) = y", opts)
	if err != nil {
		t.Fatalf("ParseWith: %v", err)
	}
	if !f.IsEq() || f.Args[0].Kind != logic.TApp || f.Args[0].Name != "m" {
		t.Fatalf("got %v", f)
	}
	// Without the declaration it is a predicate atom and then '=' is a
	// syntax error.
	if _, err := Parse("m(x) = y"); err == nil {
		t.Errorf("expected error without function declaration")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "P(", "P(x", "(P(x)", "P(x))", "x", "x =", "= x",
		"exists . P(x)", "exists x P(x)", "P(x) &", "@", "x < y",
		`"unterminated`, "P(x) Q(x)", "~", "forall 5. P(x)",
	}
	for _, in := range bad {
		if f, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded with %v, want error", in, f)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	// Formula -> String -> Parse must reproduce the formula. Use the same
	// random generator as the logic tests.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		f := randFormula(rng, 4)
		s := f.String()
		g, err := Parse(s)
		if err != nil {
			t.Fatalf("round trip parse of %q failed: %v", s, err)
		}
		// String() flattens nested And/Or of the same kind, so compare via a
		// second print rather than structural equality.
		if g.String() != s {
			t.Fatalf("round trip mismatch:\n in: %s\nout: %s", s, g.String())
		}
	}
}

func TestRoundTripWeirdConstants(t *testing.T) {
	words := []string{"", "1&*|", "1|1&|", "&&", `a"b\c`}
	for _, w := range words {
		f := logic.Atom("P", logic.Const(w))
		g, err := Parse(f.String())
		if err != nil {
			t.Fatalf("parse %q: %v", f.String(), err)
		}
		if !g.Equal(f) {
			t.Errorf("round trip of constant %q: got %v", w, g)
		}
	}
}

func TestParseTerm(t *testing.T) {
	tm, err := ParseTerm("f(x, 3)", Options{})
	if err != nil {
		t.Fatalf("ParseTerm: %v", err)
	}
	want := logic.App("f", logic.Var("x"), logic.Const("3"))
	if !tm.Equal(want) {
		t.Errorf("got %v, want %v", tm, want)
	}
	if _, err := ParseTerm("f(x,", Options{}); err == nil {
		t.Errorf("expected error")
	}
	if _, err := ParseTerm("x y", Options{}); err == nil {
		t.Errorf("expected trailing-input error")
	}
}

func TestKeywordsNotIdentifiers(t *testing.T) {
	// "true" and "false" in formula position are the constants, not atoms.
	f := MustParse("true & P(x)")
	if f.Sub[0].Kind != logic.FTrue {
		t.Errorf("true should parse as the propositional constant: %v", f)
	}
}

func TestWhitespaceInsensitive(t *testing.T) {
	a := MustParse("exists x.(P( x )&Q(x))")
	b := MustParse("exists x . ( P(x) & Q(x) )")
	if !a.Equal(b) {
		t.Errorf("whitespace sensitivity: %v vs %v", a, b)
	}
}

// randFormula mirrors the generator in the logic package tests but only
// produces formulas whose String() round-trips (any formula does).
func randFormula(rng *rand.Rand, depth int) *logic.Formula {
	vars := []string{"x", "y", "z"}
	terms := []logic.Term{logic.Var("x"), logic.Var("y"), logic.Var("z"),
		logic.Const("a"), logic.Const("1&|")}
	randTerm := func() logic.Term { return terms[rng.Intn(len(terms))] }
	atom := func() *logic.Formula {
		switch rng.Intn(3) {
		case 0:
			return logic.Atom("P", randTerm())
		case 1:
			return logic.Atom("R", randTerm(), randTerm())
		default:
			return logic.Eq(randTerm(), randTerm())
		}
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(8) {
	case 0:
		return atom()
	case 1:
		return logic.Not(randFormula(rng, depth-1))
	case 2:
		return logic.And(randFormula(rng, depth-1), randFormula(rng, depth-1))
	case 3:
		return logic.Or(randFormula(rng, depth-1), randFormula(rng, depth-1))
	case 4:
		return logic.Implies(randFormula(rng, depth-1), randFormula(rng, depth-1))
	case 5:
		return logic.Iff(randFormula(rng, depth-1), randFormula(rng, depth-1))
	case 6:
		return logic.Exists(vars[rng.Intn(len(vars))], randFormula(rng, depth-1))
	default:
		return logic.Forall(vars[rng.Intn(len(vars))], randFormula(rng, depth-1))
	}
}

func TestErrorMessagesMentionOffset(t *testing.T) {
	_, err := Parse("P(x) @")
	if err == nil || !strings.Contains(err.Error(), "offset") {
		t.Errorf("error should mention offset: %v", err)
	}
}

// TestNestingCap: every nesting construct is accepted up to the cap, and
// its printed form (which may nest twice as many groupings) parses back
// to the same formula; one level more is a parse error, not a stack
// overflow later on.
func TestNestingCap(t *testing.T) {
	builders := []struct {
		name  string
		build func(n int) string // a formula n levels deep
	}{
		{"negation", func(n int) string { return strings.Repeat("~", n-1) + "P(x)" }},
		{"quantifier", func(n int) string { return strings.Repeat("exists x. ", n-1) + "P(x)" }},
		{"implication", func(n int) string { return strings.Repeat("P(x) -> ", n-1) + "P(x)" }},
		{"bi-implication", func(n int) string { return strings.Repeat("P(x) <-> ", n-1) + "P(x)" }},
		{"alternating and/or", func(n int) string {
			return strings.Repeat("P(x) & (Q(x) | ", (n-1)/2) + "P(x)" + strings.Repeat(")", (n-1)/2)
		}},
		{"function application", func(n int) string {
			return "x = " + strings.Repeat("f(", n-1) + "y" + strings.Repeat(")", n-1)
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			g, err := Parse(b.build(maxDepth))
			if err != nil {
				t.Fatalf("depth %d rejected: %v", maxDepth, err)
			}
			h, err := Parse(g.String())
			if err != nil {
				t.Fatalf("printed form does not re-parse: %v", err)
			}
			if !h.Equal(g) {
				t.Fatal("printed form parses to a different formula")
			}
			if _, err := Parse(b.build(maxDepth + 2)); err == nil || !strings.Contains(err.Error(), "nests deeper") {
				t.Fatalf("depth %d: want a nesting error, got %v", maxDepth+2, err)
			}
		})
	}
	// Parentheses alone add no tree depth; they are bounded as parser
	// recursion.
	if _, err := Parse(strings.Repeat("(", maxNesting) + "P(x)" + strings.Repeat(")", maxNesting)); err != nil {
		t.Fatalf("%d parentheses rejected: %v", maxNesting, err)
	}
	if _, err := Parse(strings.Repeat("(", maxNesting+1) + "P(x)" + strings.Repeat(")", maxNesting+1)); err == nil {
		t.Fatalf("%d parentheses accepted", maxNesting+1)
	}
	if _, err := ParseTerm(strings.Repeat("f(", maxNesting+1)+"y"+strings.Repeat(")", maxNesting+1), Options{}); err == nil {
		t.Fatal("over-deep term accepted")
	}
}

// TestNestingCapRefusesBeforeLexingAll: the parser pulls tokens as it goes,
// so a megabyte of negations is refused at the cap without tokenizing the
// rest of the input (tokenizing all of it first cost 172 MB).
func TestNestingCapRefusesBeforeLexingAll(t *testing.T) {
	input := strings.Repeat("~", 1_000_000) + "R(x)"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(input)
	runtime.ReadMemStats(&after)
	const want = "parser: offset 2001: formula nests deeper than 1000 levels"
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("refusing the input allocated %d bytes, want under 1 MiB", got)
	}
}
