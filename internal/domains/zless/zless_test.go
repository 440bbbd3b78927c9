package zless

import (
	"context"
	"testing"

	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/presburger"
)

func lt(a, b logic.Term) *logic.Formula { return logic.Atom(PredLt, a, b) }

func decide(t *testing.T, f *logic.Formula) bool {
	t.Helper()
	v, err := Decider().Decide(context.Background(), f)
	if err != nil {
		t.Fatalf("Decide(%v): %v", f, err)
	}
	return v
}

func TestDecideIntegerFacts(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		// No least or greatest element.
		{logic.Exists("x", logic.Forall("y", logic.Not(lt(y, x)))), false},
		{logic.Exists("x", logic.Forall("y", logic.Not(lt(x, y)))), false},
		// Dense failure: nothing strictly between n and n+1.
		{logic.Exists("x", logic.And(lt(logic.Const("0"), x), lt(x, logic.Const("1")))), false},
		// Negatives are real.
		{logic.Exists("x", lt(x, logic.Const("0"))), true},
		{logic.Exists("x", logic.Eq(
			logic.App(presburger.FuncAdd, x, logic.Const("5")), logic.Const("2"))), true},
		// Ground with negative numerals.
		{lt(logic.Const("-3"), logic.Const("-1")), true},
		{lt(logic.Const("-1"), logic.Const("-3")), false},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestDomainInterp(t *testing.T) {
	d := Domain{}
	if d.Name() != "zless" {
		t.Errorf("name")
	}
	v, err := d.ConstValue("-7")
	if err != nil || v.Key() != "-7" {
		t.Errorf("negative constant: %v %v", v, err)
	}
	got, err := d.Func(presburger.FuncSub, []domain.Value{domain.Int(2), domain.Int(5)})
	if err != nil || got.Key() != "-3" {
		t.Errorf("2-5 = %v, %v (true subtraction, not monus)", got, err)
	}
	got, err = d.Func(presburger.FuncNeg, []domain.Value{domain.Int(4)})
	if err != nil || got.Key() != "-4" {
		t.Errorf("neg: %v %v", got, err)
	}
	ok, err := d.Pred(presburger.PredDvd, []domain.Value{domain.Int(3), domain.Int(-9)})
	if err != nil || !ok {
		t.Errorf("3 | -9: %v %v", ok, err)
	}
}

func TestEnumeratorZigzag(t *testing.T) {
	d := Domain{}
	want := []string{"0", "1", "-1", "2", "-2", "3", "-3"}
	for i, w := range want {
		if got := d.Element(i).Key(); got != w {
			t.Errorf("Element(%d) = %s, want %s", i, got, w)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		k := d.Element(i).Key()
		if seen[k] {
			t.Fatalf("Element repeats %s", k)
		}
		seen[k] = true
	}
}

func TestDomainInterpEdgeCases(t *testing.T) {
	d := Domain{}
	if d.Name() != "zless" || d.ConstName(domain.Int(-3)) != "-3" {
		t.Errorf("name/constname")
	}
	if _, err := d.ConstValue("x"); err == nil {
		t.Errorf("bad constant accepted")
	}
	// Arity and type errors.
	if _, err := d.Func(presburger.FuncAdd, []domain.Value{domain.Int(1)}); err == nil {
		t.Errorf("arity error not caught")
	}
	if _, err := d.Func("pow", []domain.Value{domain.Int(1), domain.Int(2)}); err == nil {
		t.Errorf("unknown function accepted")
	}
	if _, err := d.Func(presburger.FuncAdd, []domain.Value{domain.Word("a"), domain.Int(2)}); err == nil {
		t.Errorf("type error not caught")
	}
	if got, err := d.Func(presburger.FuncAdd, []domain.Value{domain.Int(2), domain.Int(3)}); err != nil || got.Key() != "5" {
		t.Errorf("add: %v %v", got, err)
	}
	if got, err := d.Func(presburger.FuncMul, []domain.Value{domain.Int(-2), domain.Int(3)}); err != nil || got.Key() != "-6" {
		t.Errorf("mul: %v %v", got, err)
	}
	// Predicates.
	preds := []struct {
		p    string
		a, b int64
		want bool
	}{
		{presburger.PredLe, -2, -2, true},
		{presburger.PredGt, 0, -1, true},
		{presburger.PredGe, -5, -4, false},
	}
	for _, c := range preds {
		got, err := d.Pred(c.p, []domain.Value{domain.Int(c.a), domain.Int(c.b)})
		if err != nil || got != c.want {
			t.Errorf("%s(%d,%d) = %v %v", c.p, c.a, c.b, got, err)
		}
	}
	if _, err := d.Pred("between", []domain.Value{domain.Int(1), domain.Int(2)}); err == nil {
		t.Errorf("unknown predicate accepted")
	}
	if _, err := d.Pred(presburger.PredLt, []domain.Value{domain.Int(1)}); err == nil {
		t.Errorf("pred arity error not caught")
	}
	if _, err := d.Pred(presburger.PredDvd, []domain.Value{domain.Int(0), domain.Int(2)}); err == nil {
		t.Errorf("zero modulus accepted")
	}
	if _, err := d.Pred(presburger.PredLt, []domain.Value{domain.Word("a"), domain.Int(2)}); err == nil {
		t.Errorf("type error not caught")
	}
}

func TestEliminatorAccessor(t *testing.T) {
	e := Eliminator()
	f := logic.Exists("x", lt(logic.Var("x"), logic.Const("0")))
	g, err := e.Eliminate(context.Background(), f)
	if err != nil || !g.QuantifierFree() {
		t.Errorf("Eliminate: %v %v", g, err)
	}
	// Over ℤ, some x < 0 exists; the residue must be true.
	v, err := Decider().Decide(context.Background(), f)
	if err != nil || !v {
		t.Errorf("Decide: %v %v", v, err)
	}
}
