package core

import (
	"context"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/zless"
	"repro/internal/logic"
	"repro/internal/presburger"
	"repro/internal/query"
)

func intState(t *testing.T, values ...int64) *db.State {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, v := range values {
		if err := st.Insert("R", domain.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestFinitizeZ verifies the paper's remark about integers: the ℕ-style
// one-sided finitization is NOT enough over ℤ, and the two-sided FinitizeZ
// is — the "minor modification of the finitization procedure".
func TestFinitizeZ(t *testing.T) {
	st := intState(t, -3, 4)
	x := logic.Var("x")

	// x < 4 is infinite over ℤ (unbounded below) though finite over ℕ.
	below := logic.Atom(presburger.PredLt, x, logic.Const("4"))
	finite, err := RelativeSafetyIntegers(context.Background(), st, below)
	if err != nil {
		t.Fatalf("RelativeSafetyIntegers: %v", err)
	}
	if finite {
		t.Errorf("x < 4 should be infinite over ℤ")
	}
	// The same query over ℕ is finite (the contrast that forces the
	// modification).
	finiteNat, err := RelativeSafetyPresburger(context.Background(), st, below)
	if err != nil {
		t.Fatal(err)
	}
	if !finiteNat {
		t.Errorf("x < 4 should be finite over ℕ")
	}

	// A two-sided interval is finite over ℤ.
	interval := logic.And(
		logic.Atom(presburger.PredLt, logic.Const("-10"), x),
		logic.Atom(presburger.PredLt, x, logic.Const("4")))
	finite, err = RelativeSafetyIntegers(context.Background(), st, interval)
	if err != nil {
		t.Fatal(err)
	}
	if !finite {
		t.Errorf("bounded interval should be finite over ℤ")
	}

	// R(x) is finite; ¬R(x) infinite.
	finite, err = RelativeSafetyIntegers(context.Background(), st, logic.Atom("R", x))
	if err != nil || !finite {
		t.Errorf("R(x): %v %v", finite, err)
	}
	finite, err = RelativeSafetyIntegers(context.Background(), st, logic.Not(logic.Atom("R", x)))
	if err != nil || finite {
		t.Errorf("¬R(x): %v %v", finite, err)
	}

	// Every FinitizeZ image is finite over ℤ — including of one-sided and
	// complement queries.
	for _, f := range []*logic.Formula{
		below,
		logic.Not(logic.Atom("R", x)),
		logic.Eq(x, x),
	} {
		finite, err := RelativeSafetyIntegers(context.Background(), st, FinitizeZ(f))
		if err != nil {
			t.Fatalf("FinitizeZ relative safety: %v", err)
		}
		if !finite {
			t.Errorf("FinitizeZ(%v) should be finite over ℤ", f)
		}
	}

	// The ℕ-style one-sided finitization fails over ℤ: Finitize(x < 4)
	// keeps the unbounded-below answer (the ∃m bound is satisfied by m=4),
	// so it is still infinite — the reason the modification is needed.
	finite, err = RelativeSafetyIntegers(context.Background(), st, Finitize(below))
	if err != nil {
		t.Fatal(err)
	}
	if finite {
		t.Errorf("one-sided finitization should NOT be finite over ℤ")
	}
}

// TestFinitizeZEquivalenceForFinite: FinitizeZ is equivalent to the query
// on finite queries over ℤ.
func TestFinitizeZEquivalenceForFinite(t *testing.T) {
	st := intState(t, -3, 4)
	x := logic.Var("x")
	e := presburger.Eliminator{Integers: true}
	finiteQueries := []*logic.Formula{
		logic.Atom("R", x),
		logic.And(
			logic.Atom(presburger.PredLt, logic.Const("-5"), x),
			logic.Atom(presburger.PredLt, x, logic.Const("0"))),
	}
	for _, f := range finiteQueries {
		pure, err := translateZ(st, f)
		if err != nil {
			t.Fatal(err)
		}
		fin := FinitizeZ(pure)
		vars := pure.FreeVars()
		eq, err := e.Decide(context.Background(), logic.ForallAll(vars, logic.Iff(pure, fin)))
		if err != nil {
			t.Fatalf("equivalence: %v", err)
		}
		if !eq {
			t.Errorf("finite %v not equivalent to its ℤ-finitization", f)
		}
	}
}

func translateZ(st *db.State, f *logic.Formula) (*logic.Formula, error) {
	return query.Translate(zless.Domain{}, st, f)
}
