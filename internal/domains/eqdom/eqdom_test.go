package eqdom

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/domain"
	"repro/internal/logic"
)

func decide(t *testing.T, f *logic.Formula) bool {
	t.Helper()
	v, err := Decider().Decide(context.Background(), f)
	if err != nil {
		t.Fatalf("Decide(%v): %v", f, err)
	}
	return v
}

func TestDecideBasics(t *testing.T) {
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	a, b := logic.Const("a"), logic.Const("b")
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		{logic.Exists("x", logic.Eq(x, x)), true},
		{logic.Exists("x", logic.Neq(x, x)), false},
		{logic.Exists("x", logic.Eq(x, a)), true},
		{logic.Exists("x", logic.And(logic.Eq(x, a), logic.Eq(x, b))), false},
		{logic.Exists("x", logic.And(logic.Neq(x, a), logic.Neq(x, b))), true},
		// At least three distinct elements.
		{logic.ExistsAll([]string{"x", "y", "z"}, logic.And(
			logic.Neq(x, y), logic.Neq(y, z), logic.Neq(x, z))), true},
		// Equality is transitive.
		{logic.ForallAll([]string{"x", "y", "z"}, logic.Implies(
			logic.And(logic.Eq(x, y), logic.Eq(y, z)), logic.Eq(x, z))), true},
		// No element equals everything.
		{logic.Exists("x", logic.Forall("y", logic.Eq(x, y))), false},
		// Distinct constants are distinct elements.
		{logic.Eq(a, b), false},
		{logic.Eq(a, a), true},
		{logic.Forall("x", logic.Or(logic.Eq(x, a), logic.Neq(x, a))), true},
	}
	for _, c := range cases {
		if got := decide(t, c.f); got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestEliminatorErrors(t *testing.T) {
	e := Eliminator{}
	if _, err := e.Eliminate(context.Background(), logic.Exists("x", logic.Atom("P", logic.Var("x")))); err == nil {
		t.Errorf("predicate accepted in pure equality theory")
	}
	if _, err := e.Eliminate(context.Background(), logic.Exists("x",
		logic.Eq(logic.App("f", logic.Var("x")), logic.Var("x")))); err == nil {
		t.Errorf("function accepted in pure equality theory")
	}
}

func TestFresh(t *testing.T) {
	avoid := map[string]bool{"e0": true, "e1": true}
	v := Fresh(avoid)
	if avoid[v.Key()] {
		t.Errorf("Fresh returned avoided element %v", v)
	}
}

func TestDomainBasics(t *testing.T) {
	d := Domain{}
	if d.Name() != "eq" {
		t.Errorf("name")
	}
	if _, err := d.ConstValue(""); err == nil {
		t.Errorf("empty constant accepted")
	}
	if _, err := d.Func("f", nil); err == nil {
		t.Errorf("function accepted")
	}
	if _, err := d.Pred("P", nil); err == nil {
		t.Errorf("predicate accepted")
	}
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		k := d.Element(i).Key()
		if seen[k] {
			t.Fatalf("Element repeats %q", k)
		}
		seen[k] = true
	}
}

// TestAgainstFiniteModels: for pure equality sentences using at most k
// variables and constants, truth over the infinite domain coincides with
// truth over any finite model with ≥ k elements that interprets the
// constants injectively. This gives a brute-force oracle.
func TestAgainstFiniteModels(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	elements := []string{"a", "b", "c", "d", "e", "f", "g"} // ≥ vars+consts
	for i := 0; i < 250; i++ {
		f := randEqSentence(rng, 2)
		want := evalFinite(t, f, elements, map[string]string{})
		if got := decide(t, f); got != want {
			t.Fatalf("Decide(%v) = %v, finite oracle says %v", f, got, want)
		}
	}
}

func randEqSentence(rng *rand.Rand, depth int) *logic.Formula {
	vars := []string{"x", "y", "z"}
	body := randEqBody(rng, depth, vars)
	for i := len(vars) - 1; i >= 0; i-- {
		if rng.Intn(2) == 0 {
			body = logic.Exists(vars[i], body)
		} else {
			body = logic.Forall(vars[i], body)
		}
	}
	return body
}

func randEqBody(rng *rand.Rand, depth int, vars []string) *logic.Formula {
	terms := []logic.Term{
		logic.Var("x"), logic.Var("y"), logic.Var("z"),
		logic.Const("a"), logic.Const("b"),
	}
	atom := func() *logic.Formula {
		return logic.Eq(terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))])
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(5) {
	case 0:
		return atom()
	case 1:
		return logic.Not(randEqBody(rng, depth-1, vars))
	case 2:
		return logic.And(randEqBody(rng, depth-1, vars), randEqBody(rng, depth-1, vars))
	case 3:
		return logic.Or(randEqBody(rng, depth-1, vars), randEqBody(rng, depth-1, vars))
	default:
		// Implies, not Iff: nested Iff under three quantifier alternations
		// makes the DNF used by elimination blow up exponentially.
		return logic.Implies(randEqBody(rng, depth-1, vars), randEqBody(rng, depth-1, vars))
	}
}

func evalFinite(t *testing.T, f *logic.Formula, elements []string, env map[string]string) bool {
	t.Helper()
	evalTerm := func(tm logic.Term) string {
		if tm.Kind == logic.TVar {
			return env[tm.Name]
		}
		return "const:" + tm.Name
	}
	switch f.Kind {
	case logic.FTrue:
		return true
	case logic.FFalse:
		return false
	case logic.FAtom:
		return evalTerm(f.Args[0]) == evalTerm(f.Args[1])
	case logic.FNot:
		return !evalFinite(t, f.Sub[0], elements, env)
	case logic.FAnd:
		for _, s := range f.Sub {
			if !evalFinite(t, s, elements, env) {
				return false
			}
		}
		return true
	case logic.FOr:
		for _, s := range f.Sub {
			if evalFinite(t, s, elements, env) {
				return true
			}
		}
		return false
	case logic.FImplies:
		return !evalFinite(t, f.Sub[0], elements, env) || evalFinite(t, f.Sub[1], elements, env)
	case logic.FIff:
		return evalFinite(t, f.Sub[0], elements, env) == evalFinite(t, f.Sub[1], elements, env)
	case logic.FExists, logic.FForall:
		saved, had := env[f.Var]
		defer func() {
			if had {
				env[f.Var] = saved
			} else {
				delete(env, f.Var)
			}
		}()
		// Constants "a"/"b" are also candidate values for quantified
		// variables: include them so witnesses can equal constants.
		candidates := append([]string{"const:a", "const:b"}, elements...)
		for _, e := range candidates {
			env[f.Var] = e
			v := evalFinite(t, f.Sub[0], elements, env)
			if f.Kind == logic.FExists && v {
				return true
			}
			if f.Kind == logic.FForall && !v {
				return false
			}
		}
		return f.Kind == logic.FForall
	}
	t.Fatalf("bad kind")
	return false
}

func TestEnumeratorIsDomainValue(t *testing.T) {
	var _ domain.Enumerator = Domain{}
	var _ domain.Domain = Domain{}
}
