package logic

import (
	"math/rand"
	"strings"
	"testing"
)

// evalFin evaluates f over a small finite model: elements is the universe,
// env binds variables, preds interprets predicate atoms (equality is
// built in), and constants denote themselves (their name must be in
// elements). It is a test oracle for the normal-form transformations.
func evalFin(t *testing.T, f *Formula, elements []string, env map[string]string,
	preds func(name string, args []string) bool) bool {
	t.Helper()
	var evalTerm func(tm Term) string
	evalTerm = func(tm Term) string {
		switch tm.Kind {
		case TVar:
			v, ok := env[tm.Name]
			if !ok {
				t.Fatalf("unbound variable %q", tm.Name)
			}
			return v
		case TConst:
			return tm.Name
		default:
			t.Fatalf("finite model has no functions (term %v)", tm)
			return ""
		}
	}
	switch f.Kind {
	case FTrue:
		return true
	case FFalse:
		return false
	case FAtom:
		args := make([]string, len(f.Args))
		for i, a := range f.Args {
			args[i] = evalTerm(a)
		}
		if f.Pred == EqPred {
			return args[0] == args[1]
		}
		return preds(f.Pred, args)
	case FNot:
		return !evalFin(t, f.Sub[0], elements, env, preds)
	case FAnd:
		for _, s := range f.Sub {
			if !evalFin(t, s, elements, env, preds) {
				return false
			}
		}
		return true
	case FOr:
		for _, s := range f.Sub {
			if evalFin(t, s, elements, env, preds) {
				return true
			}
		}
		return false
	case FImplies:
		return !evalFin(t, f.Sub[0], elements, env, preds) ||
			evalFin(t, f.Sub[1], elements, env, preds)
	case FIff:
		return evalFin(t, f.Sub[0], elements, env, preds) ==
			evalFin(t, f.Sub[1], elements, env, preds)
	case FExists, FForall:
		saved, had := env[f.Var]
		defer func() {
			if had {
				env[f.Var] = saved
			} else {
				delete(env, f.Var)
			}
		}()
		for _, e := range elements {
			env[f.Var] = e
			v := evalFin(t, f.Sub[0], elements, env, preds)
			if f.Kind == FExists && v {
				return true
			}
			if f.Kind == FForall && !v {
				return false
			}
		}
		return f.Kind == FForall
	}
	t.Fatalf("unknown kind %d", f.Kind)
	return false
}

// randFormula generates a random formula over unary predicate P, binary
// predicate R, variables x,y,z, constants a,b, with the given connective
// depth and optionally quantifiers.
func randFormula(rng *rand.Rand, depth int, quantifiers bool) *Formula {
	vars := []string{"x", "y", "z"}
	terms := []Term{Var("x"), Var("y"), Var("z"), Const("a"), Const("b")}
	randTerm := func() Term { return terms[rng.Intn(len(terms))] }
	atom := func() *Formula {
		switch rng.Intn(3) {
		case 0:
			return Atom("P", randTerm())
		case 1:
			return Atom("R", randTerm(), randTerm())
		default:
			return Eq(randTerm(), randTerm())
		}
	}
	if depth == 0 {
		return atom()
	}
	max := 6
	if quantifiers {
		max = 8
	}
	switch rng.Intn(max) {
	case 0:
		return atom()
	case 1:
		return Not(randFormula(rng, depth-1, quantifiers))
	case 2:
		return And(randFormula(rng, depth-1, quantifiers), randFormula(rng, depth-1, quantifiers))
	case 3:
		return Or(randFormula(rng, depth-1, quantifiers), randFormula(rng, depth-1, quantifiers))
	case 4:
		return Implies(randFormula(rng, depth-1, quantifiers), randFormula(rng, depth-1, quantifiers))
	case 5:
		return Iff(randFormula(rng, depth-1, quantifiers), randFormula(rng, depth-1, quantifiers))
	case 6:
		return Exists(vars[rng.Intn(len(vars))], randFormula(rng, depth-1, quantifiers))
	default:
		return Forall(vars[rng.Intn(len(vars))], randFormula(rng, depth-1, quantifiers))
	}
}

// randModel builds a random interpretation of P and R over elements.
func randModel(rng *rand.Rand, elements []string) func(string, []string) bool {
	p := map[string]bool{}
	r := map[string]bool{}
	for _, e := range elements {
		p[e] = rng.Intn(2) == 0
		for _, e2 := range elements {
			r[e+","+e2] = rng.Intn(2) == 0
		}
	}
	return func(name string, args []string) bool {
		switch name {
		case "P":
			return p[args[0]]
		case "R":
			return r[args[0]+","+args[1]]
		}
		return false
	}
}

func fullEnv(elements []string) map[string]string {
	return map[string]string{"x": elements[0], "y": elements[1], "z": elements[0]}
}

func TestTermBasics(t *testing.T) {
	x := Var("x")
	a := Const("a")
	fx := App("f", x, a)
	if got := fx.String(); got != "f(x, a)" {
		t.Errorf("String = %q", got)
	}
	if !fx.HasVar("x") || fx.HasVar("y") {
		t.Errorf("HasVar wrong")
	}
	if fx.Ground() {
		t.Errorf("f(x,a) should not be ground")
	}
	if !App("f", a).Ground() {
		t.Errorf("f(a) should be ground")
	}
	g := fx.SubstTerm("x", Const("b"))
	if got := g.String(); got != "f(b, a)" {
		t.Errorf("subst = %q", got)
	}
	// Original unchanged.
	if got := fx.String(); got != "f(x, a)" {
		t.Errorf("subst mutated original: %q", got)
	}
	if !fx.Equal(App("f", Var("x"), Const("a"))) {
		t.Errorf("Equal false negative")
	}
	if fx.Equal(App("f", Var("x"))) {
		t.Errorf("Equal false positive on arity")
	}
}

func TestConstQuoting(t *testing.T) {
	c := Const("1&*|")
	if got := c.String(); got != `"1&*|"` {
		t.Errorf("weird constant should quote, got %q", got)
	}
	if got := Const("abc9").String(); got != "abc9" {
		t.Errorf("plain constant should not quote, got %q", got)
	}
}

func TestFreeVars(t *testing.T) {
	// ∃y (R(x,y) ∧ P(z)) has free x, z.
	f := Exists("y", And(Atom("R", Var("x"), Var("y")), Atom("P", Var("z"))))
	got := f.FreeVars()
	if len(got) != 2 || got[0] != "x" || got[1] != "z" {
		t.Errorf("FreeVars = %v", got)
	}
	if f.Sentence() {
		t.Errorf("not a sentence")
	}
	if !ForallAll([]string{"x", "z"}, f).Sentence() {
		t.Errorf("closed formula should be a sentence")
	}
	if !f.HasFreeVar("x") || f.HasFreeVar("y") {
		t.Errorf("HasFreeVar wrong")
	}
}

func TestQuantifierDepth(t *testing.T) {
	f := Exists("x", And(Forall("y", Atom("P", Var("y"))), Exists("z", Exists("w", Atom("P", Var("w"))))))
	if d := f.QuantifierDepth(); d != 3 {
		t.Errorf("QuantifierDepth = %d, want 3", d)
	}
	if d := Atom("P", Var("x")).QuantifierDepth(); d != 0 {
		t.Errorf("depth of atom = %d", d)
	}
}

func TestSubstCaptureAvoidance(t *testing.T) {
	// (∃y. R(x,y))[x := y] must rename the binder, not capture.
	f := Exists("y", Atom("R", Var("x"), Var("y")))
	g := Subst(f, "x", Var("y"))
	if g.Kind != FExists {
		t.Fatalf("expected quantifier, got %v", g)
	}
	if g.Var == "y" {
		t.Fatalf("capture: binder still named y in %v", g)
	}
	atom := g.Sub[0]
	if !atom.Args[0].IsVar("y") {
		t.Errorf("substituted variable should be free y, got %v", g)
	}
	if !atom.Args[1].IsVar(g.Var) {
		t.Errorf("bound occurrence should follow the renamed binder, got %v", g)
	}
}

func TestSubstShadowing(t *testing.T) {
	// (∃x. P(x))[x := a] leaves the formula alone: x is not free.
	f := Exists("x", Atom("P", Var("x")))
	g := Subst(f, "x", Const("a"))
	if !g.Equal(f) {
		t.Errorf("shadowed substitution changed formula: %v", g)
	}
}

func TestSubstConst(t *testing.T) {
	// P(c) ∧ ∃z. R(z,c) with [z/c]: binder z must be renamed.
	f := And(Atom("P", Const("c")), Exists("z", Atom("R", Var("z"), Const("c"))))
	g := SubstConst(f, "c", Var("z"))
	free := g.FreeVars()
	if len(free) != 1 || free[0] != "z" {
		t.Fatalf("free vars after [z/c] = %v, want [z]; formula %v", free, g)
	}
	// The inner binder must no longer be z.
	inner := g.Sub[1]
	if inner.Kind != FExists || inner.Var == "z" {
		t.Errorf("binder not renamed: %v", g)
	}
}

func TestSubstConstNoOp(t *testing.T) {
	f := Atom("P", Const("d"))
	g := SubstConst(f, "c", Var("z"))
	if !g.Equal(f) {
		t.Errorf("substituting absent constant changed formula")
	}
}

func TestNNFShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		f := randFormula(rng, 4, true)
		g := NNF(f)
		if !IsNNF(g) {
			t.Fatalf("NNF(%v) = %v is not NNF", f, g)
		}
	}
}

func TestNNFPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	elements := []string{"a", "b", "c"}
	for i := 0; i < 300; i++ {
		f := randFormula(rng, 4, true)
		model := randModel(rng, elements)
		env := fullEnv(elements)
		want := evalFin(t, f, elements, env, model)
		got := evalFin(t, NNF(f), elements, fullEnv(elements), model)
		if want != got {
			t.Fatalf("NNF changed semantics of %v (nnf %v): want %v got %v",
				f, NNF(f), want, got)
		}
	}
}

func TestPrenexPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	elements := []string{"a", "b"}
	for i := 0; i < 300; i++ {
		f := randFormula(rng, 3, true)
		prefix, matrix := Prenex(f)
		if !matrix.QuantifierFree() {
			t.Fatalf("matrix not quantifier-free: %v", matrix)
		}
		g := PrenexFormula(prefix, matrix)
		model := randModel(rng, elements)
		want := evalFin(t, f, elements, fullEnv(elements), model)
		got := evalFin(t, g, elements, fullEnv(elements), model)
		if want != got {
			t.Fatalf("prenex changed semantics of %v -> %v: want %v got %v", f, g, want, got)
		}
	}
}

func TestPrenexRectified(t *testing.T) {
	// Same bound name used twice plus free occurrence; prefix must contain
	// distinct names.
	f := And(Exists("x", Atom("P", Var("x"))),
		Forall("x", Atom("R", Var("x"), Var("y"))))
	prefix, matrix := Prenex(f)
	if len(prefix) != 2 {
		t.Fatalf("prefix = %v", prefix)
	}
	if prefix[0].Var == prefix[1].Var {
		t.Errorf("bound variables not renamed apart: %v", prefix)
	}
	if !PrenexFormula(prefix, matrix).HasFreeVar("y") {
		t.Errorf("free variable y lost")
	}
}

func TestDNFCNFSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	elements := []string{"a", "b", "c"}
	for i := 0; i < 300; i++ {
		f := randFormula(rng, 4, false)
		model := randModel(rng, elements)
		want := evalFin(t, f, elements, fullEnv(elements), model)
		d := FromDNF(DNF(f))
		c := fromCNF(CNF(f))
		if got := evalFin(t, d, elements, fullEnv(elements), model); got != want {
			t.Fatalf("DNF changed semantics of %v -> %v", f, d)
		}
		if got := evalFin(t, c, elements, fullEnv(elements), model); got != want {
			t.Fatalf("CNF changed semantics of %v -> %v", f, c)
		}
	}
}

func fromCNF(clauses [][]*Formula) *Formula {
	conjs := make([]*Formula, len(clauses))
	for i, c := range clauses {
		conjs[i] = Or(c...)
	}
	return And(conjs...)
}

func TestDNFLiteralsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		f := randFormula(rng, 4, false)
		for _, clause := range DNF(f) {
			for _, lit := range clause {
				if !IsLiteral(lit) {
					t.Fatalf("DNF clause member %v is not a literal (from %v)", lit, f)
				}
			}
		}
	}
}

func TestSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	elements := []string{"a", "b"}
	for i := 0; i < 400; i++ {
		f := randFormula(rng, 4, true)
		g := Simplify(f)
		model := randModel(rng, elements)
		want := evalFin(t, f, elements, fullEnv(elements), model)
		got := evalFin(t, g, elements, fullEnv(elements), model)
		if want != got {
			t.Fatalf("Simplify changed semantics of %v -> %v: want %v got %v", f, g, want, got)
		}
	}
}

func TestSimplifyCases(t *testing.T) {
	x, a := Var("x"), Const("a")
	cases := []struct {
		in   *Formula
		want *Formula
	}{
		{And(True(), Atom("P", x)), Atom("P", x)},
		{And(False(), Atom("P", x)), False()},
		{Or(True(), Atom("P", x)), True()},
		{Or(False(), Atom("P", x)), Atom("P", x)},
		{Not(Not(Atom("P", x))), Atom("P", x)},
		{Eq(a, a), True()},
		{Eq(x, x), True()},
		{And(Atom("P", x), Not(Atom("P", x))), False()},
		{Or(Atom("P", x), Not(Atom("P", x))), True()},
		{Implies(False(), Atom("P", x)), True()},
		{Implies(True(), Atom("P", x)), Atom("P", x)},
		{Iff(Atom("P", x), Atom("P", x)), True()},
		{Exists("y", Atom("P", x)), Atom("P", x)},
		{Forall("y", True()), True()},
		{And(Atom("P", x), Atom("P", x)), Atom("P", x)},
		{And(And(Atom("P", x), Atom("P", a)), True()),
			And(Atom("P", x), Atom("P", a))},
	}
	for _, c := range cases {
		got := Simplify(c.in)
		if !got.Equal(c.want) {
			t.Errorf("Simplify(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestDedupKeyedMatchesPairwise: wide junctions are deduplicated through
// canonical keys, narrow ones pairwise; on junctions drawn with repeats
// from a few formulas and their negations, both keep the same juncts in
// the same order and find the same complementary pairs.
func TestDedupKeyedMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		pool := make([]*Formula, 1+rng.Intn(6))
		for j := range pool {
			pool[j] = randFormula(rng, 2, true)
		}
		flat := make([]*Formula, 1+rng.Intn(3*keyedJunction))
		for j := range flat {
			g := pool[rng.Intn(len(pool))].Clone()
			if rng.Intn(8) == 0 {
				g = Not(g)
			}
			flat[j] = g
		}
		want, wantComp := dedupPairwise(flat)
		got, gotComp := dedupKeyed(flat)
		if gotComp != wantComp || len(got) != len(want) {
			t.Fatalf("%d juncts: keyed kept %d (complementary %v), pairwise %d (%v)",
				len(flat), len(got), gotComp, len(want), wantComp)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%d juncts: keyed junct %d is %v, pairwise %v", len(flat), j, got[j], want[j])
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	f := Forall("x", Implies(Atom("P", Var("x")), Exists("y", Neq(Var("x"), Var("y")))))
	s := f.String()
	for _, want := range []string{"forall x.", "P(x)", "exists y.", "x != y", "->"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestPredicatesAndConstants(t *testing.T) {
	f := And(Atom("R", Const("b"), App("f", Const("a"))), Eq(Var("x"), Const("a")),
		Atom("P", Var("x")))
	ps := f.Predicates()
	if len(ps) != 2 || ps[0] != "P" || ps[1] != "R" {
		t.Errorf("Predicates = %v", ps)
	}
	cs := f.Constants()
	if len(cs) != 2 || cs[0] != "a" || cs[1] != "b" {
		t.Errorf("Constants = %v", cs)
	}
}

func TestCloneIndependence(t *testing.T) {
	f := And(Atom("P", Var("x")), Exists("y", Eq(Var("x"), Var("y"))))
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatalf("clone differs")
	}
	g.Sub[0].Pred = "Q"
	if f.Sub[0].Pred != "P" {
		t.Errorf("clone shares structure with original")
	}
}

func TestRenameBoundAlphaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	elements := []string{"a", "b", "c"}
	for i := 0; i < 200; i++ {
		f := randFormula(rng, 4, true)
		g := RenameBound(f)
		model := randModel(rng, elements)
		want := evalFin(t, f, elements, fullEnv(elements), model)
		got := evalFin(t, g, elements, fullEnv(elements), model)
		if want != got {
			t.Fatalf("RenameBound changed semantics of %v -> %v", f, g)
		}
		// Rectified: no bound name repeats, none coincides with a free var.
		bound := map[string]int{}
		g.Walk(func(h *Formula) {
			if h.Kind == FExists || h.Kind == FForall {
				bound[h.Var]++
			}
		})
		for v, n := range bound {
			if n > 1 {
				t.Fatalf("bound variable %q repeats in %v", v, g)
			}
			for _, fv := range g.FreeVars() {
				if fv == v {
					t.Fatalf("variable %q both free and bound in %v", v, g)
				}
			}
		}
	}
}

func TestFreshVar(t *testing.T) {
	f := Exists("z", Atom("R", Var("z"), Var("z0")))
	v := FreshVar("z", f)
	if v == "z" || v == "z0" {
		t.Errorf("FreshVar returned used name %q", v)
	}
	if got := FreshVar("w", f); got != "w" {
		t.Errorf("FreshVar should return unused hint, got %q", got)
	}
}

func TestExistsAllOrder(t *testing.T) {
	f := ExistsAll([]string{"x", "y"}, Atom("R", Var("x"), Var("y")))
	if f.Kind != FExists || f.Var != "x" {
		t.Fatalf("outer quantifier wrong: %v", f)
	}
	if f.Sub[0].Kind != FExists || f.Sub[0].Var != "y" {
		t.Fatalf("inner quantifier wrong: %v", f)
	}
}

func TestSizeMonotone(t *testing.T) {
	f := Atom("P", Var("x"))
	g := And(f, f)
	if g.Size() <= f.Size() {
		t.Errorf("Size not monotone: %d vs %d", g.Size(), f.Size())
	}
}
