package traces

import (
	"context"
	"testing"

	"repro/internal/logic"
)

// The decision procedure itself verifies the appendix's expressibility
// claims: each equivalence sentence ∀x̄ (symbol ↔ P-definition) is decided
// true over the whole domain. This is a doubly strong test — it confirms
// both the defining formulas and the eliminator's handling of the mixed
// sentences.

func decideTrue(t *testing.T, name string, f *logic.Formula) {
	t.Helper()
	v, err := Decider().Decide(context.Background(), f)
	if err != nil {
		t.Fatalf("%s: Decide: %v", name, err)
	}
	if !v {
		t.Errorf("%s: expressibility sentence decided false", name)
	}
}

func TestExpressSorts(t *testing.T) {
	x := logic.Var("x")
	decideTrue(t, "T", logic.Forall("x",
		logic.Iff(logic.Atom(PredT, x), ExpressT("x"))))
	decideTrue(t, "M", logic.Forall("x",
		logic.Iff(logic.Atom(PredM, x), ExpressM("x"))))
	decideTrue(t, "W", logic.Forall("x",
		logic.Iff(logic.Atom(PredW, x), ExpressW("x"))))
	decideTrue(t, "O", logic.Forall("x",
		logic.Iff(logic.Atom(PredO, x), ExpressO("x"))))
}

func TestExpressDE(t *testing.T) {
	m, w := logic.Var("m"), logic.Var("w")
	for _, i := range []int{1, 2} {
		dDef, err := ExpressD(i, "m", "w")
		if err != nil {
			t.Fatal(err)
		}
		decideTrue(t, DEName(false, i), logic.ForallAll([]string{"m", "w"},
			logic.Iff(logic.Atom(DEName(false, i), m, w), dDef)))
		eDef, err := ExpressE(i, "m", "w")
		if err != nil {
			t.Fatal(err)
		}
		decideTrue(t, DEName(true, i), logic.ForallAll([]string{"m", "w"},
			logic.Iff(logic.Atom(DEName(true, i), m, w), eDef)))
	}
	if _, err := ExpressD(0, "m", "w"); err == nil {
		t.Errorf("zero index accepted")
	}
	if _, err := ExpressE(0, "m", "w"); err == nil {
		t.Errorf("zero index accepted")
	}
}

func TestExpressFunctionGraphs(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	decideTrue(t, "m-graph", logic.ForallAll([]string{"x", "y"},
		logic.Iff(logic.Eq(logic.App(FuncM, x), y), ExpressMGraph("x", "y"))))
	decideTrue(t, "w-graph", logic.ForallAll([]string{"x", "y"},
		logic.Iff(logic.Eq(logic.App(FuncW, x), y), ExpressWGraph("x", "y"))))
}

// TestExpressDefinitionsAreOriginalSignature: the defining formulas use
// only P and equality.
func TestExpressDefinitionsAreOriginalSignature(t *testing.T) {
	d2, err := ExpressD(2, "m", "w")
	if err != nil {
		t.Fatal(err)
	}
	formulas := []*logic.Formula{
		ExpressT("x"), ExpressM("x"), ExpressW("x"), ExpressO("x"),
		d2, ExpressMGraph("x", "y"), ExpressWGraph("x", "y"),
	}
	for _, f := range formulas {
		for _, pred := range f.Predicates() {
			if pred != PredP {
				t.Errorf("definition %v uses predicate %q outside the original signature", f, pred)
			}
		}
		f.Walk(func(g *logic.Formula) {
			if g.Kind != logic.FAtom {
				return
			}
			for _, tm := range g.Args {
				if tm.Kind == logic.TApp {
					t.Errorf("definition %v uses a function term %v", f, tm)
				}
			}
		})
	}
}
