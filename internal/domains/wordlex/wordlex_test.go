package wordlex

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/domain"
	"repro/internal/logic"
)

func TestIndexWordAtBijection(t *testing.T) {
	// First few words in shortlex order.
	want := []string{"", "a", "b", "aa", "ab", "ba", "bb", "aaa"}
	for i, w := range want {
		if got := WordAt(int64(i)); got != w {
			t.Errorf("WordAt(%d) = %q, want %q", i, got, w)
		}
		if got := Index(w); got != int64(i) {
			t.Errorf("Index(%q) = %d, want %d", w, got, i)
		}
	}
	// Round trip by quick check.
	if err := quick.Check(func(nRaw uint16) bool {
		n := int64(nRaw)
		return Index(WordAt(n)) == n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestLessIsShortlex(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"", "a", true},
		{"a", "b", true},
		{"b", "aa", true}, // shorter first
		{"ab", "ba", true},
		{"ba", "ab", false},
		{"a", "a", false},
	}
	for _, c := range cases {
		if got := Less(c.a, c.b); got != c.want {
			t.Errorf("Less(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func decide(t *testing.T, f *logic.Formula) bool {
	t.Helper()
	v, err := Decider().Decide(context.Background(), f)
	if err != nil {
		t.Fatalf("Decide(%v): %v", f, err)
	}
	return v
}

func TestDecideShortlexTheory(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	lt := func(a, b logic.Term) *logic.Formula { return logic.Atom(PredLt, a, b) }
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		// ε is the least word.
		{logic.Exists("x", logic.Forall("y", logic.Not(lt(y, x)))), true},
		{logic.Forall("y", logic.Not(lt(y, logic.Const("")))), true},
		// No greatest word; discreteness: nothing between a and b.
		{logic.Forall("x", logic.Exists("y", lt(x, y))), true},
		{logic.Exists("x", logic.And(lt(logic.Const("a"), x), lt(x, logic.Const("b")))), false},
		// Exactly two words between b and ba: aa, ab.
		{logic.ExistsAll([]string{"x", "y"}, logic.And(
			logic.Neq(x, y),
			lt(logic.Const("b"), x), lt(x, logic.Const("ba")),
			lt(logic.Const("b"), y), lt(y, logic.Const("ba")))), true},
		// Ground comparisons.
		{lt(logic.Const("ab"), logic.Const("ba")), true},
		{lt(logic.Const("bb"), logic.Const("aa")), false},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestDecideAgainstOrderOracle(t *testing.T) {
	// Random ground sentences decided against direct comparison.
	rng := rand.New(rand.NewSource(7))
	randWord := func() string {
		n := rng.Intn(4)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(2))
		}
		return string(b)
	}
	for i := 0; i < 200; i++ {
		a, b := randWord(), randWord()
		f := logic.Atom(PredLt, logic.Const(a), logic.Const(b))
		if got := decide(t, f); got != Less(a, b) {
			t.Fatalf("Decide(lt(%q,%q)) = %v, oracle %v", a, b, got, Less(a, b))
		}
	}
}

func TestEliminate(t *testing.T) {
	// ∃x (y < x ∧ x < "ba"): solvable iff y < "ab", the immediate
	// predecessor of "ba" in shortlex order.
	f := logic.Exists("x", logic.And(
		logic.Atom(PredLt, logic.Var("y"), logic.Var("x")),
		logic.Atom(PredLt, logic.Var("x"), logic.Const("ba"))))
	g, err := (Eliminator{}).Eliminate(context.Background(), f)
	if err != nil {
		t.Fatalf("Eliminate: %v", err)
	}
	if !g.QuantifierFree() || g.HasFreeVar("x") {
		t.Fatalf("bad elimination: %v", g)
	}
	for w, want := range map[string]bool{"": true, "aa": true, "ab": false, "ba": false, "bb": false} {
		sentence := logic.Subst(g, "y", logic.Const(WordAt(Index(w))))
		// The eliminated formula may be in numeral form; decide on the N<
		// side by translating the substituted constant consistently.
		got, err := Decider().Decide(context.Background(), logic.Subst(f, "y", logic.Const(w)))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("y=%q: %v, want %v", w, got, want)
		}
		_ = sentence
	}
}

func TestDomainBasics(t *testing.T) {
	d := Domain{}
	if _, err := d.ConstValue("abc"); err == nil {
		t.Errorf("invalid word accepted")
	}
	if _, err := d.Func("f", nil); err == nil {
		t.Errorf("function accepted")
	}
	v, err := d.Pred(PredLt, []domain.Value{domain.Word("a"), domain.Word("b")})
	if err != nil || !v {
		t.Errorf("a < b: %v %v", v, err)
	}
	// Enumerator follows shortlex.
	for i := 0; i < 50; i++ {
		if Index(d.Element(i).Key()) != int64(i) {
			t.Fatalf("Element(%d) out of order", i)
		}
	}
	if _, err := Decider().Decide(context.Background(), logic.Atom("P", logic.Var("x"))); err == nil {
		t.Errorf("unknown predicate accepted")
	}
}
