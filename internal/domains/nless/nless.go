// Package nless is the paper's Section 2.1 domain N<: the natural numbers
// with order (and nothing else). It is implemented as a signature-restricted
// view of the Presburger engine — N< is a reduct of Presburger arithmetic,
// and everything proved for "any extension of the domain N<" (Fact 2.1,
// Theorems 2.2 and 2.5) is exercised over this domain and over the full
// Presburger extension alike.
package nless

import (
	"context"
	"fmt"

	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/presburger"
)

// PredLt re-exports the order predicate spelling.
const PredLt = presburger.PredLt

// Domain is ℕ with < only.
type Domain struct {
	full presburger.Domain
}

// Name implements domain.Domain.
func (Domain) Name() string { return "nless" }

// ConstValue implements domain.Interp.
func (d Domain) ConstValue(name string) (domain.Value, error) {
	return d.full.ConstValue(name)
}

// ConstName implements domain.Domain.
func (d Domain) ConstName(v domain.Value) string { return d.full.ConstName(v) }

// Func implements domain.Interp; N< has no functions.
func (Domain) Func(name string, args []domain.Value) (domain.Value, error) {
	return nil, fmt.Errorf("nless: unknown function %q", name)
}

// Pred implements domain.Interp; only < is available.
func (d Domain) Pred(name string, args []domain.Value) (bool, error) {
	if name != PredLt {
		return false, fmt.Errorf("nless: unknown predicate %q", name)
	}
	return d.full.Pred(name, args)
}

// Element implements domain.Enumerator.
func (d Domain) Element(i int) domain.Value { return d.full.Element(i) }

// CheckSignature verifies that f uses only <, =, numerals, and variables.
func CheckSignature(f *logic.Formula) error {
	var err error
	f.Walk(func(g *logic.Formula) {
		if g.Kind != logic.FAtom || err != nil {
			return
		}
		if g.Pred != logic.EqPred && g.Pred != PredLt {
			err = fmt.Errorf("nless: unknown predicate %q", g.Pred)
			return
		}
		for _, t := range g.Args {
			if t.Kind == logic.TApp {
				err = fmt.Errorf("nless: N< has no functions (term %v)", t)
			}
		}
	})
	return err
}

// Eliminator performs quantifier elimination for N< formulas, rejecting
// symbols outside the reduct before delegating to Cooper's algorithm.
type Eliminator struct{}

// Eliminate implements domain.Eliminator.
func (Eliminator) Eliminate(ctx context.Context, f *logic.Formula) (*logic.Formula, error) {
	if err := CheckSignature(f); err != nil {
		return nil, err
	}
	return presburger.Eliminator{}.Eliminate(ctx, f)
}

// deciderT decides N< sentences with Cooper's elimination, which stops
// with the context's error at its next poll inside a step.
type deciderT struct{}

// Decide implements domain.Decider.
func (deciderT) Decide(ctx context.Context, f *logic.Formula) (bool, error) {
	if err := CheckSignature(f); err != nil {
		return false, err
	}
	return presburger.Eliminator{}.Decide(ctx, f)
}

// Decider returns the decision procedure for N<.
func Decider() domain.Decider { return deciderT{} }
