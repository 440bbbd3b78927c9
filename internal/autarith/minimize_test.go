package autarith

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/presburger"
)

func TestMinimizePreservesRelation(t *testing.T) {
	// x − y ≤ 2 before and after minimization.
	d := LeqAtom([]string{"x", "y"}, map[string]int64{"x": 1, "y": -1}, 2)
	m := Minimize(d)
	if m.NumStates() > d.NumStates() {
		t.Fatalf("minimization grew: %s -> %s", statesString(d), statesString(m))
	}
	for x := int64(0); x <= 6; x++ {
		for y := int64(0); y <= 6; y++ {
			a, err := d.Runs(map[string]int64{"x": x, "y": y})
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.Runs(map[string]int64{"x": x, "y": y})
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("x=%d y=%d: %v vs %v", x, y, a, b)
			}
		}
	}
}

func TestMinimizeCanonical(t *testing.T) {
	// Two syntactically different automata for the same relation minimize
	// to isomorphic DFAs: x ≤ 3 vs x < 4.
	a := LeqAtom([]string{"x"}, map[string]int64{"x": 1}, 3)
	b, err := Compile(logic.Atom(presburger.PredLt, logic.Var("x"), logic.Const("4")))
	if err != nil {
		t.Fatal(err)
	}
	if !Isomorphic(Minimize(a), Minimize(b)) {
		t.Errorf("x≤3 and x<4 should minimize identically")
	}
	// And a different relation does not.
	c := LeqAtom([]string{"x"}, map[string]int64{"x": 1}, 4)
	if Isomorphic(Minimize(a), Minimize(c)) {
		t.Errorf("x≤3 and x≤4 differ")
	}
}

func TestEquivalentBasics(t *testing.T) {
	x := logic.Var("x")
	lt := func(a, b logic.Term) *logic.Formula { return logic.Atom(presburger.PredLt, a, b) }
	le := func(a, b logic.Term) *logic.Formula { return logic.Atom(presburger.PredLe, a, b) }
	eq, err := Equivalent(lt(x, logic.Const("3")), le(x, logic.Const("2")))
	if err != nil || !eq {
		t.Errorf("x<3 ≡ x≤2: %v %v", eq, err)
	}
	eq, err = Equivalent(lt(x, logic.Const("3")), lt(x, logic.Const("4")))
	if err != nil || eq {
		t.Errorf("x<3 ≢ x<4: %v %v", eq, err)
	}
	// Different variable sets align by cylindrification: x<3 vs x<3 ∧ y=y.
	eq, err = Equivalent(lt(x, logic.Const("3")),
		logic.And(lt(x, logic.Const("3")), logic.Eq(logic.Var("y"), logic.Var("y"))))
	if err != nil || !eq {
		t.Errorf("vacuous conjunct should not matter: %v %v", eq, err)
	}
}

// TestEquivalentDifferentialAgainstCooper: formula equivalence by automata
// isomorphism agrees with Cooper's ∀-sentence method.
func TestEquivalentDifferentialAgainstCooper(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cooper := presburger.Eliminator{MaxNodes: 200_000}
	agreements, skipped := 0, 0
	for i := 0; i < 120; i++ {
		f := randOpenFormula(rng)
		g := randOpenFormula(rng)
		a, err := Equivalent(f, g)
		if err != nil {
			t.Fatalf("autarith Equivalent: %v (%v vs %v)", err, f, g)
		}
		b, err := cooper.Equivalent(f, g)
		if err != nil {
			skipped++
			continue
		}
		if a != b {
			t.Fatalf("equivalence oracles disagree on %v vs %v: automata=%v cooper=%v", f, g, a, b)
		}
		agreements++
	}
	if agreements < 80 {
		t.Fatalf("too few comparisons: %d (skipped %d)", agreements, skipped)
	}
	// Also: every formula is equivalent to itself modulo a tautology.
	f := randOpenFormula(rng)
	a, err := Equivalent(f, logic.And(f, logic.True()))
	if err != nil || !a {
		t.Errorf("f ≡ f ∧ true failed: %v %v", a, err)
	}
}

func randOpenFormula(rng *rand.Rand) *logic.Formula {
	x := logic.Var("x")
	atom := func() *logic.Formula {
		c := logic.Const(itoa(int64(rng.Intn(6))))
		switch rng.Intn(3) {
		case 0:
			return logic.Atom(presburger.PredLt, x, c)
		case 1:
			return logic.Atom(presburger.PredDvd, logic.Const(itoa(int64(2+rng.Intn(2)))), x)
		default:
			return logic.Eq(x, c)
		}
	}
	var rec func(d int) *logic.Formula
	rec = func(d int) *logic.Formula {
		if d == 0 {
			return atom()
		}
		switch rng.Intn(4) {
		case 0:
			return atom()
		case 1:
			return logic.Not(rec(d - 1))
		case 2:
			return logic.And(rec(d-1), rec(d-1))
		default:
			return logic.Or(rec(d-1), rec(d-1))
		}
	}
	return rec(2)
}

// statesString renders state counts for diagnostics.
func statesString(d *DFA) string {
	return fmt.Sprintf("%d states / %d tracks", d.NumStates(), len(d.Vars))
}
