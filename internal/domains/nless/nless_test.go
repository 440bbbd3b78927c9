package nless

import (
	"context"
	"testing"

	"repro/internal/domain"
	"repro/internal/logic"
)

func lt(a, b logic.Term) *logic.Formula { return logic.Atom(PredLt, a, b) }

func TestDecide(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		{logic.Exists("x", logic.Forall("y", logic.Not(lt(y, x)))), true}, // least element
		{logic.Forall("x", logic.Exists("y", lt(x, y))), true},            // no greatest
		{logic.Exists("x", logic.And(lt(logic.Const("1"), x), lt(x, logic.Const("3")))), true},
		{logic.Exists("x", logic.And(lt(logic.Const("1"), x), lt(x, logic.Const("2")))), false},
		{lt(logic.Const("2"), logic.Const("5")), true},
	}
	for _, c := range cases {
		v, err := Decider().Decide(context.Background(), c.f)
		if err != nil {
			t.Fatalf("Decide(%v): %v", c.f, err)
		}
		if v != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, v, c.want)
		}
	}
}

func TestSignatureRestriction(t *testing.T) {
	// Addition belongs to the Presburger extension, not to N< itself.
	f := logic.Exists("x", logic.Eq(
		logic.App("add", logic.Var("x"), logic.Var("x")), logic.Const("4")))
	if _, err := Decider().Decide(context.Background(), f); err == nil {
		t.Errorf("function accepted in N<")
	}
	if _, err := (Eliminator{}).Eliminate(context.Background(), f); err == nil {
		t.Errorf("Eliminate accepted a function in N<")
	}
	g := logic.Exists("x", logic.Atom("dvd", logic.Const("2"), logic.Var("x")))
	if _, err := Decider().Decide(context.Background(), g); err == nil {
		t.Errorf("divisibility accepted in N<")
	}
}

func TestDomainView(t *testing.T) {
	d := Domain{}
	if d.Name() != "nless" {
		t.Errorf("name")
	}
	v, err := d.Pred(PredLt, []domain.Value{domain.Int(1), domain.Int(2)})
	if err != nil || !v {
		t.Errorf("1 < 2: %v %v", v, err)
	}
	if _, err := d.Pred("le", []domain.Value{domain.Int(1), domain.Int(2)}); err == nil {
		t.Errorf("le accepted in N<")
	}
	if _, err := d.Func("add", nil); err == nil {
		t.Errorf("function accepted")
	}
	if d.Element(2).Key() != "2" {
		t.Errorf("Element wrong")
	}
	if _, err := d.ConstValue("7"); err != nil {
		t.Errorf("numeral rejected: %v", err)
	}
	if d.ConstName(domain.Int(7)) != "7" {
		t.Errorf("ConstName wrong")
	}
}

func TestEliminateDelegates(t *testing.T) {
	f := logic.Exists("x", logic.And(
		lt(logic.Var("y"), logic.Var("x")),
		lt(logic.Var("x"), logic.Var("z"))))
	g, err := (Eliminator{}).Eliminate(context.Background(), f)
	if err != nil {
		t.Fatalf("Eliminate: %v", err)
	}
	if !g.QuantifierFree() {
		t.Errorf("quantifier left: %v", g)
	}
}
