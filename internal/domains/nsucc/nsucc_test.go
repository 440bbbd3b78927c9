package nsucc

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/domain"
	"repro/internal/logic"
)

func s(t logic.Term) logic.Term { return logic.App(FuncS, t) }
func num(n int) logic.Term      { return logic.Const(strconv.Itoa(n)) }
func decide(t *testing.T, f *logic.Formula) bool {
	t.Helper()
	v, err := Decider().Decide(context.Background(), f)
	if err != nil {
		t.Fatalf("Decide(%v): %v", f, err)
	}
	return v
}

func TestParseRender(t *testing.T) {
	tm := s(s(logic.Var("x")))
	st, err := Parse(tm)
	if err != nil || st.Var != "x" || st.Shift != 2 {
		t.Fatalf("Parse: %v %v", st, err)
	}
	if !Render(st).Equal(tm) {
		t.Errorf("Render mismatch")
	}
	st, err = Parse(s(num(3)))
	if err != nil || !st.IsConst() || st.Shift != 4 {
		t.Fatalf("Parse const: %v %v", st, err)
	}
	if _, err := Parse(logic.App("f", logic.Var("x"))); err == nil {
		t.Errorf("unknown function accepted")
	}
	if _, err := Parse(logic.Const("abc")); err == nil {
		t.Errorf("bad constant accepted")
	}
	if got := (STerm{Var: "x", Shift: 2}).String(); got != "x^(2)" {
		t.Errorf("String = %q", got)
	}
}

func TestDecideBasics(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		// s is injective.
		{logic.ForallAll([]string{"x", "y"},
			logic.Implies(logic.Eq(s(x), s(y)), logic.Eq(x, y))), true},
		// 0 is not a successor.
		{logic.Exists("x", logic.Eq(s(x), num(0))), false},
		// Every other numeral is.
		{logic.Exists("x", logic.Eq(s(x), num(1))), true},
		{logic.Exists("x", logic.Eq(s(s(x)), num(7))), true},
		{logic.Exists("x", logic.Eq(s(s(x)), num(1))), false},
		// No fixpoints, no loops.
		{logic.Exists("x", logic.Eq(s(x), x)), false},
		{logic.Exists("x", logic.Eq(s(s(s(x))), x)), false},
		// Infinitely many elements: distinct pairs exist.
		{logic.ExistsAll([]string{"x", "y"}, logic.Neq(x, y)), true},
		// Successors translate: x' = y' ∨ x ≠ y.
		{logic.ForallAll([]string{"x", "y"},
			logic.Or(logic.Eq(s(x), s(y)), logic.Neq(x, y))), true},
		// Every element has a successor distinct from itself.
		{logic.Forall("x", logic.Exists("y", logic.And(
			logic.Eq(s(x), y), logic.Neq(x, y)))), true},
		// Exactly one predecessor when one exists.
		{logic.Forall("y", logic.ForallAll([]string{"x", "z"},
			logic.Implies(
				logic.And(logic.Eq(s(x), logic.Var("y")), logic.Eq(s(logic.Var("z")), logic.Var("y"))),
				logic.Eq(x, logic.Var("z"))))), true},
		// Ground.
		{logic.Eq(s(num(2)), num(3)), true},
		{logic.Eq(s(num(2)), num(4)), false},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

// TestOrderNotExpressibleProbe: the paper notes < is not expressible in N'.
// We cannot test inexpressibility directly, but the canonical probe — "some
// x is below every y" — must behave unlike an order: no formula here, just a
// sanity check that the decision procedure treats shifted disequalities
// correctly, which is what makes order inexpressible.
func TestShiftedDisequalities(t *testing.T) {
	x := logic.Var("x")
	// For every x there is y different from x, x', x''.
	f := logic.Forall("x", logic.Exists("y",
		logic.And(
			logic.Neq(logic.Var("y"), x),
			logic.Neq(logic.Var("y"), s(x)),
			logic.Neq(logic.Var("y"), s(s(x))))))
	if !decide(t, f) {
		t.Errorf("finitely many exclusions cannot exhaust ℕ")
	}
}

func TestEliminateShape(t *testing.T) {
	e := Eliminator{}
	// ∃x (x'' = y) ⟺ y ∉ {0, 1}.
	f := logic.Exists("x", logic.Eq(s(s(logic.Var("x"))), logic.Var("y")))
	g, err := e.Eliminate(context.Background(), f)
	if err != nil {
		t.Fatalf("Eliminate: %v", err)
	}
	if !g.QuantifierFree() || g.HasFreeVar("x") {
		t.Fatalf("bad elimination: %v", g)
	}
	for yv, want := range map[int]bool{0: false, 1: false, 2: true, 5: true} {
		sentence := logic.Subst(g, "y", num(yv))
		if got := decide(t, sentence); got != want {
			t.Errorf("y=%d: %v, want %v (eliminated %v)", yv, got, want, g)
		}
	}
}

// TestEliminateAgainstBruteForce cross-validates one-quantifier elimination
// against search over an initial segment of ℕ. Constants and shifts are
// small, so any witness is ≤ 30.
func TestEliminateAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	e := Eliminator{}
	for iter := 0; iter < 400; iter++ {
		body := randBody(rng, 2)
		yv := rng.Intn(6)
		grounded := logic.Subst(body, "y", num(yv))
		found := false
		for xv := 0; xv <= 30 && !found; xv++ {
			v, err := e.decideGroundForTest(logic.Subst(grounded, "x", num(xv)))
			if err != nil {
				t.Fatalf("ground: %v", err)
			}
			found = v
		}
		got, err := Decider().Decide(context.Background(), logic.Exists("x", grounded))
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		if found && !got {
			t.Fatalf("witness exists for %v (y=%d) but QE says false", body, yv)
		}
		if !found && got {
			wider := false
			for xv := 0; xv <= 200 && !wider; xv++ {
				v, _ := e.decideGroundForTest(logic.Subst(grounded, "x", num(xv)))
				wider = v
			}
			if !wider {
				t.Fatalf("QE says true but no witness ≤ 200 for %v (y=%d)", body, yv)
			}
		}
	}
}

// decideGroundForTest evaluates a variable-free formula.
func (e Eliminator) decideGroundForTest(f *logic.Formula) (bool, error) {
	return Decider().Decide(context.Background(), f)
}

func randBody(rng *rand.Rand, depth int) *logic.Formula {
	terms := func() logic.Term {
		var t logic.Term
		if rng.Intn(2) == 0 {
			t = logic.Var([]string{"x", "y"}[rng.Intn(2)])
		} else {
			t = num(rng.Intn(5))
		}
		for i := rng.Intn(3); i > 0; i-- {
			t = s(t)
		}
		return t
	}
	atom := func() *logic.Formula { return logic.Eq(terms(), terms()) }
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(5) {
	case 0:
		return atom()
	case 1:
		return logic.Not(randBody(rng, depth-1))
	case 2:
		return logic.And(randBody(rng, depth-1), randBody(rng, depth-1))
	case 3:
		return logic.Or(randBody(rng, depth-1), randBody(rng, depth-1))
	default:
		return logic.Implies(randBody(rng, depth-1), randBody(rng, depth-1))
	}
}

func TestDecideConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		body := randBody(rng, 2)
		var f *logic.Formula
		if rng.Intn(2) == 0 {
			f = logic.ForallAll([]string{"x", "y"}, body)
		} else {
			f = logic.Forall("x", logic.Exists("y", body))
		}
		v, err := Decider().Decide(context.Background(), f)
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		nv, err := Decider().Decide(context.Background(), logic.Not(f))
		if err != nil {
			t.Fatalf("Decide(¬): %v", err)
		}
		if v == nv {
			t.Errorf("inconsistent on %v", f)
		}
	}
}

func TestDomain(t *testing.T) {
	d := Domain{}
	if d.Name() != "nsucc" {
		t.Errorf("name")
	}
	if _, err := d.Func(FuncS, nil); err == nil {
		t.Errorf("arity error not caught")
	}
	if got, err := d.Func(FuncS, []domain.Value{domain.Int(4)}); err != nil || got.Key() != "5" {
		t.Errorf("s(4) = %v, %v", got, err)
	}
	if _, err := d.ConstValue("-2"); err == nil {
		t.Errorf("negative constant accepted")
	}
	if d.Element(3).Key() != "3" {
		t.Errorf("Element wrong")
	}
	if _, err := d.Pred("lt", nil); err == nil {
		t.Errorf("N' has no order predicate")
	}
}

func TestEliminatorRejectsUnknownPredicates(t *testing.T) {
	f := logic.Exists("x", logic.Atom("lt", logic.Var("x"), num(3)))
	if _, err := (Eliminator{}).Eliminate(context.Background(), f); err == nil {
		t.Errorf("unknown predicate accepted")
	}
}
