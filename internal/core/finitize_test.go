package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/presburger"
	"repro/internal/query"
)

func lt(a, b logic.Term) *logic.Formula { return logic.Atom(presburger.PredLt, a, b) }

func natState(t *testing.T, rel string, values ...int64) *db.State {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{rel: 1}))
	for _, v := range values {
		if err := st.Insert(rel, domain.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestFact21 reproduces Fact 2.1: the formula defining "the smallest
// integer greater than all active domain elements" is finite but not
// domain-independent.
func TestFact21(t *testing.T) {
	st := natState(t, "R", 2, 5)
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	// Δ(y) for this scheme is just R(y).
	phi := logic.And(
		logic.Forall("y", logic.Implies(logic.Atom("R", y), lt(y, x))),
		logic.Forall("y", logic.Implies(lt(y, x),
			logic.Exists("z", logic.And(logic.Atom("R", z), logic.Not(lt(z, y)))))),
	)

	// (1) The query is finite in every state we try (Theorem 2.5 decider).
	for _, vals := range [][]int64{{2, 5}, {}, {0}, {10, 20, 30}} {
		sti := natState(t, "R", vals...)
		finite, err := RelativeSafetyPresburger(context.Background(), sti, phi)
		if err != nil {
			t.Fatalf("RelativeSafetyPresburger: %v", err)
		}
		if !finite {
			t.Errorf("Fact 2.1 query should be finite in state %v", vals)
		}
	}

	// (2) Its answer in R = {2, 5} is {6} — one element, outside the active
	// domain, hence not domain-independent.
	ans, err := query.EnumerationAnswerSinkCtx(context.Background(), presburger.Domain{}, presburger.Decider(), st, phi, query.DefaultBudget, nil)
	if err != nil {
		t.Fatalf("EnumerationAnswerSinkCtx: %v", err)
	}
	if !ans.Complete || ans.Rows.Len() != 1 || !ans.Rows.Has(db.Tuple{domain.Int(6)}) {
		t.Fatalf("answer = %v (complete %v), want {6}", ans.Rows.Tuples(), ans.Complete)
	}
	ad := map[string]bool{}
	for _, v := range st.ActiveDomain() {
		ad[v.Key()] = true
	}
	if ad["6"] {
		t.Fatalf("6 should be outside the active domain")
	}

	// (3) In a different state the answer differs — the witness of
	// domain-dependence.
	st2 := natState(t, "R", 10)
	ans2, err := query.EnumerationAnswerSinkCtx(context.Background(), presburger.Domain{}, presburger.Decider(), st2, phi, query.DefaultBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Rows.Len() != 1 || !ans2.Rows.Has(db.Tuple{domain.Int(11)}) {
		t.Errorf("answer in second state = %v, want {11}", ans2.Rows.Tuples())
	}

	// (4) The syntactic safe-range analysis cannot certify it.
	if SafeRange(st.Scheme(), phi).Safe {
		t.Errorf("Fact 2.1 query should not be safe-range")
	}
}

func TestFinitizeShape(t *testing.T) {
	f := logic.Atom("R", logic.Var("x"))
	g := Finitize(f)
	if !g.HasFreeVar("x") {
		t.Errorf("finitization lost the free variable")
	}
	phi, ok := IsFinitization(g)
	if !ok || !phi.Equal(f) {
		t.Errorf("IsFinitization failed on a finitization")
	}
	if _, ok := IsFinitization(f); ok {
		t.Errorf("plain atom recognized as finitization")
	}
	// The bound variable must avoid capture.
	h := logic.Atom("R", logic.Var("m"))
	g2 := Finitize(h)
	if _, ok := IsFinitization(g2); !ok {
		t.Errorf("finitization with clashing variable name broken: %v", g2)
	}
}

// TestTheorem22FinitizationsAreFinite: the finitization of ANY formula is
// finite, including wildly unsafe ones.
func TestTheorem22FinitizationsAreFinite(t *testing.T) {
	st := natState(t, "R", 3, 7)
	x, y := logic.Var("x"), logic.Var("y")
	formulas := []*logic.Formula{
		logic.Not(logic.Atom("R", x)),                // complement
		logic.Eq(x, x),                               // everything
		lt(logic.Const("5"), x),                      // upward cone
		logic.Or(logic.Atom("R", x), logic.Eq(y, y)), // M(x) ∨ true(y)
		logic.Atom("R", x),                           // already finite
		logic.And(logic.Atom("R", x), logic.Atom("R", y)),
	}
	for _, f := range formulas {
		finite, err := RelativeSafetyPresburger(context.Background(), st, Finitize(f))
		if err != nil {
			t.Fatalf("RelativeSafetyPresburger(%v): %v", f, err)
		}
		if !finite {
			t.Errorf("finitization of %v reported infinite", f)
		}
	}
}

// TestTheorem22EquivalenceForFiniteQueries: the finitization of a finite
// formula is equivalent to it.
func TestTheorem22EquivalenceForFiniteQueries(t *testing.T) {
	st := natState(t, "R", 3, 7)
	x := logic.Var("x")
	finiteQueries := []*logic.Formula{
		logic.Atom("R", x),
		logic.And(logic.Atom("R", x), lt(x, logic.Const("5"))),
		lt(x, logic.Const("4")),
		logic.Exists("y", logic.And(logic.Atom("R", logic.Var("y")), lt(x, logic.Var("y")))),
	}
	e := presburger.Eliminator{}
	for _, f := range finiteQueries {
		pure, err := query.Translate(presburger.Domain{}, st, f)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := e.Equivalent(context.Background(), pure, Finitize(pure))
		if err != nil {
			t.Fatalf("Equivalent: %v", err)
		}
		if !eq {
			t.Errorf("finite %v not equivalent to its finitization", f)
		}
	}
	// And an infinite one is NOT equivalent to its finitization.
	inf := logic.Not(logic.Atom("R", x))
	pure, err := query.Translate(presburger.Domain{}, st, inf)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := e.Equivalent(context.Background(), pure, Finitize(pure))
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Errorf("infinite query equivalent to its finitization")
	}
}

// TestTheorem25 exercises the relative-safety decider on the introduction's
// M(x) ∨ G(x, z) example and its footnote: the disjunction "only gives an
// infinite answer if there is a person who parented two or more sons".
func TestTheorem25FootnoteExample(t *testing.T) {
	build := func(pairs [][2]int64) *db.State {
		st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
		for _, p := range pairs {
			if err := st.Insert("F", domain.Int(p[0]), domain.Int(p[1])); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	x, y, z := logic.Var("x"), logic.Var("y"), logic.Var("z")
	m := logic.ExistsAll([]string{"y", "y2"}, logic.And(
		logic.Neq(logic.Var("y"), logic.Var("y2")),
		logic.Atom("F", x, y),
		logic.Atom("F", x, logic.Var("y2"))))
	g := logic.Exists("y", logic.And(logic.Atom("F", x, y), logic.Atom("F", y, z)))
	disj := logic.Or(m, g)

	// Two sons of 1: M nonempty, so M(x) ∨ G(x,z) leaves z loose: infinite.
	withTwin := build([][2]int64{{1, 2}, {1, 3}, {2, 4}})
	finite, err := RelativeSafetyPresburger(context.Background(), withTwin, disj)
	if err != nil {
		t.Fatal(err)
	}
	if finite {
		t.Errorf("M∨G should be infinite when someone has two sons")
	}
	// No two sons: M empty, the disjunction reduces to G: finite.
	single := build([][2]int64{{1, 2}, {2, 4}})
	finite, err = RelativeSafetyPresburger(context.Background(), single, disj)
	if err != nil {
		t.Fatal(err)
	}
	if !finite {
		t.Errorf("M∨G should be finite when nobody has two sons")
	}
	// And the plain complement is always infinite.
	finite, err = RelativeSafetyPresburger(context.Background(), single, logic.Not(logic.Atom("F", x, y)))
	if err != nil {
		t.Fatal(err)
	}
	if finite {
		t.Errorf("¬F should be infinite")
	}
}

// TestTheorem25AgainstEnumeration cross-validates the decider against the
// §1.1 enumeration on random small queries: whenever the decider says
// finite, enumeration completes; whenever it says infinite, enumeration
// exhausts its row budget.
func TestTheorem25AgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	st := natState(t, "R", 1, 4)
	for i := 0; i < 60; i++ {
		f := randNatQuery(rng, 2)
		finite, err := RelativeSafetyPresburger(context.Background(), st, f)
		if err != nil {
			t.Fatalf("decider: %v (%v)", err, f)
		}
		ans, err := query.EnumerationAnswerSinkCtx(context.Background(), presburger.Domain{}, presburger.Decider(), st, f,
			query.EnumerationBudget{Rows: 40, Probe: 4000}, nil)
		if err != nil {
			t.Fatalf("enumeration: %v (%v)", err, f)
		}
		if finite && !ans.Complete {
			// A finite answer bigger than the row budget is possible but
			// should not happen with our tiny constants; treat as failure.
			t.Fatalf("decider says finite but enumeration incomplete: %v", f)
		}
		if !finite && ans.Complete {
			t.Fatalf("decider says infinite but enumeration completed with %d rows: %v",
				ans.Rows.Len(), f)
		}
	}
}

// randNatQuery generates queries over scheme {R/1} and the Presburger
// domain with one free variable x, small enough for enumeration.
func randNatQuery(rng *rand.Rand, depth int) *logic.Formula {
	x := logic.Var("x")
	atom := func() *logic.Formula {
		switch rng.Intn(4) {
		case 0:
			return logic.Atom("R", x)
		case 1:
			return lt(x, logic.Const([]string{"3", "6"}[rng.Intn(2)]))
		case 2:
			return lt(logic.Const([]string{"0", "2"}[rng.Intn(2)]), x)
		default:
			return logic.Eq(x, logic.Const([]string{"1", "5"}[rng.Intn(2)]))
		}
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(5) {
	case 0:
		return atom()
	case 1:
		return logic.Not(randNatQuery(rng, depth-1))
	case 2:
		return logic.And(randNatQuery(rng, depth-1), randNatQuery(rng, depth-1))
	case 3:
		return logic.Or(randNatQuery(rng, depth-1), randNatQuery(rng, depth-1))
	default:
		// ∃y quantifying a sub-query on y keeps x the only free variable.
		inner := logic.Subst(randNatQuery(rng, depth-1), "x", logic.Var("y"))
		return logic.And(atom(), logic.Exists("y", inner))
	}
}
