package core

import (
	"context"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/presburger"
	"repro/internal/query"
)

// The paper points to Kifer's comparative analysis of the safety classes
// ("We refer the reader to [Ki88], where Kifer gives a comparative analysis
// of these classes"). These tests make the class diagram executable over
// our domains:
//
//	safe-range ⊊ domain-independent ⊊ finite(in every probed state)
//
// with concrete separating formulas at each level.

// isDomainIndependentProbe approximates domain independence empirically
// over the equality domain: evaluate over the active domain and over the
// active domain plus fresh junk values; a domain-independent query's answer
// does not change. (Exact for the probed quantifier depth.)
func isDomainIndependentProbe(t *testing.T, st *db.State, f *logic.Formula) bool {
	t.Helper()
	base, err := query.EvalActiveCtx(context.Background(), presburger.Domain{}, st, f)
	if err != nil {
		t.Fatalf("EvalActiveCtx: %v", err)
	}
	// Extend the evaluation range by mentioning junk constants in a
	// tautological rider: (junk = junk) extends activeRange.
	rider := logic.And(f,
		logic.Eq(logic.Const("901"), logic.Const("901")),
		logic.Eq(logic.Const("902"), logic.Const("902")))
	wide, err := query.EvalActiveCtx(context.Background(), presburger.Domain{}, st, rider)
	if err != nil {
		t.Fatalf("EvalActiveCtx wide: %v", err)
	}
	if base.Rows.Len() != wide.Rows.Len() {
		return false
	}
	for _, row := range base.Rows.Tuples() {
		if !wide.Rows.Has(row) {
			return false
		}
	}
	return true
}

func TestClassSeparations(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1, "S": 1}))
	for _, n := range []int64{2, 5} {
		if err := st.Insert("R", domain.Int(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Insert("S", domain.Int(3)); err != nil {
		t.Fatal(err)
	}
	scheme := st.Scheme()

	type probe struct {
		name      string
		f         *logic.Formula
		safeRange bool
		domInd    bool
		finite    bool
	}
	probes := []probe{
		{
			// In all three classes.
			name:      "R(x)",
			f:         parser.MustParse("R(x)"),
			safeRange: true, domInd: true, finite: true,
		},
		{
			// Domain-independent but not safe-range: the tautological
			// disjunct defeats the syntactic analysis, the semantics is
			// just R(x).
			name: "R(x) & exists y. (S(y) | ~S(y))",
			f: logic.And(parser.MustParse("R(x)"),
				logic.Exists("y", logic.Or(
					logic.Atom("S", logic.Var("y")),
					logic.Not(logic.Atom("S", logic.Var("y")))))),
			safeRange: false, domInd: true, finite: true,
		},
		{
			// Finite but not domain-independent: Fact 2.1's successor of
			// the active domain.
			name: "Fact 2.1",
			f: logic.And(
				logic.Forall("y", logic.Implies(logic.Atom("R", logic.Var("y")),
					logic.Atom(presburger.PredLt, logic.Var("y"), logic.Var("x")))),
				logic.Forall("y", logic.Implies(
					logic.Atom(presburger.PredLt, logic.Var("y"), logic.Var("x")),
					logic.Exists("z", logic.And(logic.Atom("R", logic.Var("z")),
						logic.Not(logic.Atom(presburger.PredLt, logic.Var("z"), logic.Var("y")))))))),
			safeRange: false, domInd: false, finite: true,
		},
		{
			// In none of the classes.
			name:      "~R(x)",
			f:         parser.MustParse("~R(x)"),
			safeRange: false, domInd: false, finite: false,
		},
	}
	for _, p := range probes {
		if got := SafeRange(scheme, p.f).Safe; got != p.safeRange {
			t.Errorf("%s: safe-range = %v, want %v", p.name, got, p.safeRange)
		}
		if got := isDomainIndependentProbe(t, st, p.f); got != p.domInd {
			t.Errorf("%s: domain-independent probe = %v, want %v", p.name, got, p.domInd)
		}
		finite, err := RelativeSafetyPresburger(context.Background(), presburger.Domain{}, st, p.f)
		if err != nil {
			t.Fatalf("%s: relative safety: %v", p.name, err)
		}
		if finite != p.finite {
			t.Errorf("%s: finite = %v, want %v", p.name, finite, p.finite)
		}
	}

	// The inclusions hold across the table: safeRange ⇒ domInd ⇒ finite.
	for _, p := range probes {
		if p.safeRange && !p.domInd {
			t.Errorf("%s: safe-range without domain independence", p.name)
		}
		if p.domInd && !p.finite {
			t.Errorf("%s: domain independence without finiteness", p.name)
		}
	}
}

// TestNaturalMember checks membership under the natural semantics for both
// finite and infinite answers — §1.2's point that membership outlives
// materializability.
func TestNaturalMember(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(4)); err != nil {
		t.Fatal(err)
	}
	inf := parser.MustParse("~R(x)") // infinite answer
	for v, want := range map[int64]bool{4: false, 5: true, 0: true} {
		got, err := query.NaturalMember(context.Background(), presburger.Domain{}, presburger.Decider(), st, inf,
			map[string]domain.Value{"x": domain.Int(v)})
		if err != nil {
			t.Fatalf("NaturalMember: %v", err)
		}
		if got != want {
			t.Errorf("¬R(%d) = %v, want %v", v, got, want)
		}
	}
	if _, err := query.NaturalMember(context.Background(), presburger.Domain{}, presburger.Decider(), st, inf,
		map[string]domain.Value{}); err == nil {
		t.Errorf("missing variable accepted")
	}
}
