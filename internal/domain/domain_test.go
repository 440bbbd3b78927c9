package domain

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/logic"
)

// modInterp interprets arithmetic mod m: constants are numerals, function
// s is successor, predicate Z holds of zero. A tiny recursive structure for
// exercising the evaluation plumbing.
type modInterp struct{ m int64 }

func (d modInterp) ConstValue(name string) (Value, error) {
	n, err := strconv.ParseInt(name, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad constant %q", name)
	}
	return Int(n % d.m), nil
}

func (d modInterp) Func(name string, args []Value) (Value, error) {
	if name != "s" || len(args) != 1 {
		return nil, fmt.Errorf("unknown function %s/%d", name, len(args))
	}
	return Int((int64(args[0].(Int)) + 1) % d.m), nil
}

func (d modInterp) Pred(name string, args []Value) (bool, error) {
	if name != "Z" || len(args) != 1 {
		return false, fmt.Errorf("unknown predicate %s/%d", name, len(args))
	}
	return args[0].(Int) == 0, nil
}

func TestEvalTerm(t *testing.T) {
	in := modInterp{m: 5}
	env := Env{"x": Int(3)}
	v, err := EvalTerm(in, env, logic.App("s", logic.App("s", logic.Var("x"))))
	if err != nil {
		t.Fatalf("EvalTerm: %v", err)
	}
	if v.(Int) != 0 {
		t.Errorf("s(s(3)) mod 5 = %v, want 0", v)
	}
	if _, err := EvalTerm(in, Env{}, logic.Var("y")); err == nil {
		t.Errorf("unbound variable should error")
	}
	if _, err := EvalTerm(in, env, logic.Const("zz")); err == nil {
		t.Errorf("bad constant should error")
	}
}

func TestEvalQF(t *testing.T) {
	in := modInterp{m: 5}
	env := Env{"x": Int(4)}
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		{logic.True(), true},
		{logic.False(), false},
		{logic.Atom("Z", logic.App("s", logic.Var("x"))), true},
		{logic.Atom("Z", logic.Var("x")), false},
		{logic.Eq(logic.Var("x"), logic.Const("9")), true}, // 9 mod 5 = 4
		{logic.Neq(logic.Var("x"), logic.Const("9")), false},
		{logic.And(logic.True(), logic.Atom("Z", logic.Const("0"))), true},
		{logic.Or(logic.False(), logic.False()), false},
		{logic.Implies(logic.Atom("Z", logic.Var("x")), logic.False()), true},
		{logic.Iff(logic.Atom("Z", logic.Var("x")), logic.False()), true},
	}
	for _, c := range cases {
		got, err := EvalQF(in, env, c.f)
		if err != nil {
			t.Errorf("EvalQF(%v): %v", c.f, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalQF(%v) = %v, want %v", c.f, got, c.want)
		}
	}
	if _, err := EvalQF(in, env, logic.Exists("y", logic.True())); err == nil {
		t.Errorf("EvalQF should reject quantifiers")
	}
}

// trivialElim eliminates quantifiers over a structure where everything is Z
// or not: it replaces ∃x.φ by φ[x := 0] ∨ φ[x := 1], valid in mod-2
// arithmetic (every element is one of the two).
type trivialElim struct{}

func (trivialElim) Eliminate(_ context.Context, f *logic.Formula) (*logic.Formula, error) {
	g := f.Map(func(h *logic.Formula) *logic.Formula {
		switch h.Kind {
		case logic.FExists:
			return logic.Or(
				logic.Subst(h.Sub[0], h.Var, logic.Const("0")),
				logic.Subst(h.Sub[0], h.Var, logic.Const("1")))
		case logic.FForall:
			return logic.And(
				logic.Subst(h.Sub[0], h.Var, logic.Const("0")),
				logic.Subst(h.Sub[0], h.Var, logic.Const("1")))
		}
		return h
	})
	return g, nil
}

func TestQEDecider(t *testing.T) {
	d := QEDecider{Elim: trivialElim{}, Interp: modInterp{m: 2}}
	// ∃x Z(x) is true; ∀x Z(x) is false; ∀x (Z(x) ∨ Z(s(x))) is true.
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		{logic.Exists("x", logic.Atom("Z", logic.Var("x"))), true},
		{logic.Forall("x", logic.Atom("Z", logic.Var("x"))), false},
		{logic.Forall("x", logic.Or(
			logic.Atom("Z", logic.Var("x")),
			logic.Atom("Z", logic.App("s", logic.Var("x"))))), true},
	}
	for _, c := range cases {
		got, err := d.Decide(context.Background(), c.f)
		if err != nil {
			t.Errorf("Decide(%v): %v", c.f, err)
			continue
		}
		if got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
	if _, err := d.Decide(context.Background(), logic.Atom("Z", logic.Var("x"))); err == nil {
		t.Errorf("Decide should reject open formulas")
	}
}

// TestEliminateQuantifiers: the shared walk eliminates innermost first,
// hands ∀y to the exists step as ¬∃y¬ and simplifies the negated result
// unless told not to, rebuilds connectives around the results, and stops
// with a cancelled context's error before the first step.
func TestEliminateQuantifiers(t *testing.T) {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	// ∃x (P(x) ∧ ∀y Q(x, y)) ∨ R(z)
	f := logic.Or(
		logic.Exists("x", logic.And(logic.Atom("P", x), logic.Forall("y", logic.Atom("Q", x, y)))),
		logic.Atom("R", z))
	var bodies []*logic.Formula
	// The step answers ∃v φ with ¬E_v, so a ∀ leaves ¬¬E_v to simplify.
	exists := func(v string, body *logic.Formula) (*logic.Formula, error) {
		bodies = append(bodies, body)
		return logic.Not(logic.Atom("E" + v)), nil
	}
	for _, simplify := range []bool{true, false} {
		bodies = nil
		g, err := EliminateQuantifiers(context.Background(), f, exists, simplify)
		if err != nil {
			t.Fatal(err)
		}
		forallY := logic.Not(logic.Not(logic.Atom("Ey")))
		if simplify {
			forallY = logic.Atom("Ey")
		}
		want := []*logic.Formula{logic.Not(logic.Atom("Q", x, y)), logic.And(logic.Atom("P", x), forallY)}
		if len(bodies) != len(want) {
			t.Fatalf("simplify=%v: exists steps %v, want %v", simplify, bodies, want)
		}
		for i := range want {
			if !bodies[i].Equal(want[i]) {
				t.Errorf("simplify=%v: step %d body %v, want %v", simplify, i, bodies[i], want[i])
			}
		}
		if wantG := logic.Or(logic.Not(logic.Atom("Ex")), logic.Atom("R", z)); !g.Equal(wantG) {
			t.Errorf("simplify=%v: result %v, want %v", simplify, g, wantG)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bodies = nil
	if _, err := EliminateQuantifiers(ctx, f, exists, true); err != context.Canceled {
		t.Errorf("cancelled walk: %v, want %v", err, context.Canceled)
	}
	if len(bodies) != 0 {
		t.Errorf("cancelled walk ran %d exists steps", len(bodies))
	}
}

func TestVerdictString(t *testing.T) {
	if Holds.String() != "holds" || Fails.String() != "fails" || Unknown.String() != "unknown" {
		t.Errorf("verdict strings wrong: %v %v %v", Holds, Fails, Unknown)
	}
}

func TestEnvClone(t *testing.T) {
	e := Env{"x": Int(1)}
	c := e.Clone()
	c["x"] = Int(2)
	if e["x"].(Int) != 1 {
		t.Errorf("Clone shares storage")
	}
}

func TestValueKeys(t *testing.T) {
	if Int(42).Key() != "42" || Word("a&b").Key() != "a&b" {
		t.Errorf("keys wrong")
	}
	if Int(-1).String() != "-1" || Word("").String() != "" {
		t.Errorf("strings wrong")
	}
}

// keyOnly is a Value of neither built-in type.
type keyOnly string

func (k keyOnly) Key() string    { return string(k) }
func (k keyOnly) String() string { return string(k) }

// TestEqualAgreesWithKeys: Equal is key equality, across types too, and
// AppendKey appends exactly the key.
func TestEqualAgreesWithKeys(t *testing.T) {
	vals := []Value{Int(0), Int(5), Int(-5), Int(math.MaxInt64), Int(math.MinInt64),
		Word(""), Word("5"), Word("-5"), Word("a,b"), Word("日本"), keyOnly("5"), keyOnly("x")}
	for _, a := range vals {
		if got := string(AppendKey([]byte("p"), a)); got != "p"+a.Key() {
			t.Fatalf("AppendKey(%v) = %q, want %q", a, got, "p"+a.Key())
		}
		for _, b := range vals {
			if Equal(a, b) != (a.Key() == b.Key()) {
				t.Fatalf("Equal(%#v, %#v) = %v, keys %q and %q", a, b, Equal(a, b), a.Key(), b.Key())
			}
		}
	}
}
