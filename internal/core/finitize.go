package core

import (
	"context"

	"repro/internal/db"
	"repro/internal/domains/zless"
	"repro/internal/logic"
	"repro/internal/presburger"
	"repro/internal/query"
)

// Finitize returns the finitization φF of Theorem 2.2, valid over any
// extension of the domain N<:
//
//	φF(x̄) := φ(x̄) ∧ ∃m ∀x̄ (φ(x̄) → ⋀_i x_i < m)
//
// The second conjunct says some element bounds every answer row. Two facts
// make the set of finitizations a recursive syntax for finite queries:
// every finitization is finite (its answer sits inside a bounded box), and
// the finitization of a finite formula is equivalent to it (a finite answer
// always has an upper bound in ℕ).
func Finitize(f *logic.Formula) *logic.Formula {
	vars := f.FreeVars()
	m := logic.FreshVar("m", f)
	bounds := make([]*logic.Formula, len(vars))
	for i, v := range vars {
		bounds[i] = logic.Atom(presburger.PredLt, logic.Var(v), logic.Var(m))
	}
	inner := logic.ForallAll(vars, logic.Implies(f.Clone(), logic.And(bounds...)))
	return logic.And(f, logic.Exists(m, inner))
}

// FinitizeZ is the integer variant the paper sketches ("integers with <
// can be handled similarly after a minor modification of the finitization
// procedure"): over ℤ there is no least element, so a finite answer needs
// bounds on both sides —
//
//	φZ(x̄) := φ(x̄) ∧ ∃l ∃m ∀x̄ (φ(x̄) → ⋀_i (l < x_i ∧ x_i < m)).
func FinitizeZ(f *logic.Formula) *logic.Formula {
	vars := f.FreeVars()
	m := logic.FreshVar("m", f)
	l := logic.FreshVar("l", f)
	var bounds []*logic.Formula
	for _, v := range vars {
		bounds = append(bounds,
			logic.Atom(presburger.PredLt, logic.Var(l), logic.Var(v)),
			logic.Atom(presburger.PredLt, logic.Var(v), logic.Var(m)))
	}
	inner := logic.ForallAll(vars, logic.Implies(f.Clone(), logic.And(bounds...)))
	return logic.And(f, logic.Exists(l, logic.Exists(m, inner)))
}

// RelativeSafetyIntegers decides relative safety over (ℤ, <, +, dvd) using
// the FinitizeZ variant of the Theorem 2.5 criterion.
func RelativeSafetyIntegers(ctx context.Context, st *db.State, f *logic.Formula) (bool, error) {
	pure, err := query.Translate(zless.Domain{}, st, f)
	if err != nil {
		return false, err
	}
	fin := FinitizeZ(pure)
	vars := logic.SortedUnique(append(pure.FreeVars(), fin.FreeVars()...))
	return presburger.Eliminator{Integers: true}.Decide(ctx,
		logic.ForallAll(vars, logic.Iff(pure, fin)))
}

// IsFinitization reports whether g is syntactically the finitization of
// some formula, and returns that formula. Membership in the finitization
// syntax is decidable by this shape check — that is what makes the syntax
// recursive.
func IsFinitization(g *logic.Formula) (*logic.Formula, bool) {
	if g.Kind != logic.FAnd || len(g.Sub) != 2 {
		return nil, false
	}
	phi := g.Sub[0]
	if !g.Equal(Finitize(phi)) {
		return nil, false
	}
	return phi, true
}
