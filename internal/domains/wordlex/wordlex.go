// Package wordlex implements the last domain Section 2 of the paper points
// at: "the same ideas can be carried out for many other domains, say, for
// strings (words in a finite alphabet) with lexicographical ordering". The
// universe is {a,b}* ordered by shortlex (length first, then
// lexicographically), which is a discrete order with least element ε —
// order-isomorphic to (ℕ, <). The decision procedure, finitization, and
// relative safety all transfer along the isomorphism: a formula's word
// constants become shortlex indices (ToPresburger), and the N< image is
// decided by Cooper's algorithm, or answered by the automaton where the
// §1.1 enumeration and relative safety ask it (domain.Naturals).
package wordlex

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/presburger"
)

// PredLt is the shortlex order predicate.
const PredLt = presburger.PredLt

// Valid reports whether s is a word over {a,b}.
func Valid(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != 'a' && s[i] != 'b' {
			return false
		}
	}
	return true
}

// Index returns the shortlex index of a word: ε ↦ 0, a ↦ 1, b ↦ 2,
// aa ↦ 3, … — the standard bijective base-2 reading.
func Index(s string) int64 {
	var n int64
	for i := 0; i < len(s); i++ {
		d := int64(1)
		if s[i] == 'b' {
			d = 2
		}
		n = 2*n + d
	}
	return n
}

// WordAt inverts Index.
func WordAt(n int64) string {
	var buf []byte
	for n > 0 {
		rem := n % 2
		if rem == 0 {
			buf = append(buf, 'b')
			n = n/2 - 1
		} else {
			buf = append(buf, 'a')
			n = n / 2
		}
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return string(buf)
}

// Less is the shortlex order.
func Less(a, b string) bool { return Index(a) < Index(b) }

// Domain is {a,b}* with shortlex <, implementing domain.Domain and
// domain.Enumerator.
type Domain struct{}

// Name implements domain.Domain.
func (Domain) Name() string { return "wordlex" }

// ConstValue implements domain.Interp.
func (Domain) ConstValue(name string) (domain.Value, error) {
	if !Valid(name) {
		return nil, fmt.Errorf("wordlex: constant %q is not a word over {a,b}", name)
	}
	return domain.Word(name), nil
}

// ConstName implements domain.Domain.
func (Domain) ConstName(v domain.Value) string { return v.Key() }

// Func implements domain.Interp; the signature has no functions.
func (Domain) Func(name string, args []domain.Value) (domain.Value, error) {
	return nil, fmt.Errorf("wordlex: unknown function %q", name)
}

// Pred implements domain.Interp.
func (Domain) Pred(name string, args []domain.Value) (bool, error) {
	if name != PredLt || len(args) != 2 {
		return false, fmt.Errorf("wordlex: unknown predicate %s/%d", name, len(args))
	}
	a, ok := args[0].(domain.Word)
	if !ok {
		return false, fmt.Errorf("wordlex: non-word value %v", args[0])
	}
	b, ok := args[1].(domain.Word)
	if !ok {
		return false, fmt.Errorf("wordlex: non-word value %v", args[1])
	}
	return Less(string(a), string(b)), nil
}

// Element implements domain.Enumerator in shortlex order, so Element(i) is
// exactly the word with Index i — the enumeration IS the isomorphism.
func (Domain) Element(i int) domain.Value { return domain.Word(WordAt(int64(i))) }

// ToPresburger implements domain.Naturals: it maps a wordlex formula to an
// N< formula by replacing word constants with their indices; variables,
// =, and lt pass through. It is the formula side of the shortlex
// isomorphism, and the first step of the eliminator.
func (Domain) ToPresburger(f *logic.Formula) (*logic.Formula, error) {
	var firstErr error
	g := f.Map(func(h *logic.Formula) *logic.Formula {
		if h.Kind != logic.FAtom || firstErr != nil {
			return h
		}
		if h.Pred != logic.EqPred && h.Pred != PredLt {
			firstErr = fmt.Errorf("wordlex: unknown predicate %q", h.Pred)
			return h
		}
		args := make([]logic.Term, len(h.Args))
		for i, t := range h.Args {
			switch t.Kind {
			case logic.TVar:
				args[i] = t
			case logic.TConst:
				if !Valid(t.Name) {
					firstErr = fmt.Errorf("wordlex: constant %q is not a word over {a,b}", t.Name)
					return h
				}
				args[i] = logic.Const(strconv.FormatInt(Index(t.Name), 10))
			default:
				firstErr = fmt.Errorf("wordlex: no functions in this signature (term %v)", t)
				return h
			}
		}
		return logic.Atom(h.Pred, args...)
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return g, nil
}

// untranslate maps an N< formula back: numeral constants become words. The
// Cooper output may contain arithmetic terms; those have no wordlex
// counterpart, so untranslation is partial and Eliminate falls back to the
// numeral form when a term does not translate.
func untranslate(f *logic.Formula) (*logic.Formula, bool) {
	ok := true
	g := f.Map(func(h *logic.Formula) *logic.Formula {
		if h.Kind != logic.FAtom || !ok {
			return h
		}
		args := make([]logic.Term, len(h.Args))
		for i, t := range h.Args {
			switch t.Kind {
			case logic.TVar:
				args[i] = t
			case logic.TConst:
				n, err := strconv.ParseInt(t.Name, 10, 64)
				if err != nil || n < 0 {
					ok = false
					return h
				}
				args[i] = logic.Const(WordAt(n))
			default:
				ok = false
				return h
			}
		}
		return logic.Atom(h.Pred, args...)
	})
	return g, ok
}

// Eliminator performs quantifier elimination through the isomorphism.
type Eliminator struct{}

// Eliminate implements domain.Eliminator. The result is in the wordlex
// signature when the Cooper output happens to be term-free; otherwise the
// arithmetic residue is returned unchanged (it still decides correctly
// through Decider, which works on the N< side throughout).
func (Eliminator) Eliminate(ctx context.Context, f *logic.Formula) (*logic.Formula, error) {
	g, err := Domain{}.ToPresburger(f)
	if err != nil {
		return nil, err
	}
	qf, err := presburger.Eliminator{}.Eliminate(ctx, g)
	if err != nil {
		return nil, err
	}
	if back, ok := untranslate(qf); ok {
		return back, nil
	}
	return qf, nil
}

// Decider returns the decision procedure for ({a,b}*, <shortlex).
func Decider() domain.Decider { return presburger.DeciderOf(Domain{}) }
