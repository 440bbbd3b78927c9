// Package eqdom implements the paper's "simplest possible example": an
// infinite domain whose only relation is equality. Over it, finite and
// domain-independent queries coincide, the active-domain restriction is an
// effective syntax, and relative safety is decidable by probing a single
// fresh element (Section 2 of the paper).
//
// The universe is the set of all nonempty identifier-like strings; every
// element names itself.
package eqdom

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/domain"
	"repro/internal/logic"
)

// Domain implements domain.Domain and domain.Enumerator.
type Domain struct{}

// Name implements domain.Domain.
func (Domain) Name() string { return "eq" }

// ConstValue implements domain.Interp: every nonempty name denotes itself.
func (Domain) ConstValue(name string) (domain.Value, error) {
	if name == "" {
		return nil, fmt.Errorf("eqdom: empty constant name")
	}
	return domain.Word(name), nil
}

// ConstName implements domain.Domain.
func (Domain) ConstName(v domain.Value) string { return v.Key() }

// Func implements domain.Interp; the signature has no functions.
func (Domain) Func(name string, args []domain.Value) (domain.Value, error) {
	return nil, fmt.Errorf("eqdom: unknown function %q", name)
}

// Pred implements domain.Interp; the signature has no predicates beyond
// equality.
func (Domain) Pred(name string, args []domain.Value) (bool, error) {
	return false, fmt.Errorf("eqdom: unknown predicate %q", name)
}

// Element implements domain.Enumerator: e0, e1, e2, …
func (Domain) Element(i int) domain.Value {
	return domain.Word("e" + strconv.Itoa(i))
}

// Fresh returns an element outside the given set — the "arbitrary element
// not in the active domain" of the paper's relative-safety argument.
func Fresh(avoid map[string]bool) domain.Value {
	for i := 0; ; i++ {
		v := Domain{}.Element(i)
		if !avoid[v.Key()] {
			return v
		}
	}
}

// Eliminator performs quantifier elimination for the pure theory of
// equality over an infinite domain: within a conjunct, a positive x = t is
// substituted away, and a conjunct of disequalities alone is always
// satisfiable.
type Eliminator struct{}

// Eliminate implements domain.Eliminator.
func (e Eliminator) Eliminate(ctx context.Context, f *logic.Formula) (*logic.Formula, error) {
	g, err := domain.EliminateQuantifiers(ctx, f, e.elimExists, true)
	if err != nil {
		return nil, err
	}
	return logic.Simplify(g), nil
}

func (e Eliminator) elimExists(x string, body *logic.Formula) (*logic.Formula, error) {
	body = logic.Simplify(body)
	if !body.HasFreeVar(x) {
		return body, nil
	}
	var disjuncts []*logic.Formula
	for _, clause := range logic.DNF(body) {
		g, err := e.elimConjunct(x, clause)
		if err != nil {
			return nil, err
		}
		disjuncts = append(disjuncts, g)
	}
	return logic.Simplify(logic.Or(disjuncts...)), nil
}

func (e Eliminator) elimConjunct(x string, lits []*logic.Formula) (*logic.Formula, error) {
	for _, lit := range lits {
		atom, positive := logic.LiteralAtom(lit)
		if !atom.IsEq() {
			return nil, fmt.Errorf("eqdom: unknown predicate %q", atom.Pred)
		}
		for _, arg := range atom.Args {
			if arg.Kind == logic.TApp {
				return nil, fmt.Errorf("eqdom: the equality domain has no functions (term %v)", arg)
			}
		}
		if !positive {
			continue
		}
		var t logic.Term
		switch {
		case atom.Args[0].IsVar(x) && !atom.Args[1].HasVar(x):
			t = atom.Args[1]
		case atom.Args[1].IsVar(x) && !atom.Args[0].HasVar(x):
			t = atom.Args[0]
		default:
			continue
		}
		out := make([]*logic.Formula, len(lits))
		for i, l := range lits {
			out[i] = logic.Subst(l, x, t)
		}
		return logic.Simplify(logic.And(out...)), nil
	}
	// Only disequalities (and trivial x = x, removed by Simplify within
	// DNF clauses below) constrain x: over an infinite domain they are
	// always jointly satisfiable.
	var rest []*logic.Formula
	for _, lit := range lits {
		atom, positive := logic.LiteralAtom(lit)
		if lit.HasFreeVar(x) {
			if positive && atom.Args[0].Equal(atom.Args[1]) {
				continue // x = x
			}
			if positive {
				// x = t with t containing x on both sides: x = x handled
				// above; anything else is impossible without functions.
				return nil, fmt.Errorf("eqdom: unexpected equality %v", lit)
			}
			if atom.Args[0].Equal(atom.Args[1]) {
				return logic.False(), nil // x ≠ x
			}
			continue // x ≠ t: dodgeable
		}
		rest = append(rest, lit)
	}
	return logic.And(rest...), nil
}

// Decider returns the decision procedure for the pure equality theory.
func Decider() domain.Decider {
	return domain.QEDecider{Elim: Eliminator{}, Interp: Domain{}}
}
