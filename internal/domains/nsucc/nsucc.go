// Package nsucc implements the paper's Section 2.2 domain N': the natural
// numbers with the successor function and equality — no order. The point of
// the example is that an effective syntax for finite queries does not need
// <: quantifier elimination in the style of Mal'cev gives decidability,
// decidable relative safety (Theorem 2.6), and a recursive syntax via the
// extended active domain (Theorem 2.7).
//
// Signature: the unary successor function "s", decimal numeral constants,
// and equality. Terms are x^(n) — n-fold successor applications — over
// variables or numerals.
package nsucc

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/domain"
	"repro/internal/logic"
)

// FuncS is the successor function symbol.
const FuncS = "s"

// ParserOptions marks s as a function for the shared parser.
func ParserOptions() map[string]bool { return map[string]bool{FuncS: true} }

// STerm is a canonical term: Var^(Shift) when Var ≠ "", the numeral Shift
// otherwise. Shift is non-negative for canonical terms; negative shifts
// appear only transiently during substitution.
type STerm struct {
	Var   string
	Shift int
}

// IsConst reports whether the term is a numeral.
func (t STerm) IsConst() bool { return t.Var == "" }

// String implements fmt.Stringer.
func (t STerm) String() string {
	if t.IsConst() {
		return strconv.Itoa(t.Shift)
	}
	if t.Shift == 0 {
		return t.Var
	}
	return fmt.Sprintf("%s^(%d)", t.Var, t.Shift)
}

// Parse interprets a logic term over the successor signature.
func Parse(t logic.Term) (STerm, error) {
	shift := 0
	for t.Kind == logic.TApp {
		if t.Name != FuncS || len(t.Args) != 1 {
			return STerm{}, fmt.Errorf("nsucc: unknown function %s/%d", t.Name, len(t.Args))
		}
		shift++
		t = t.Args[0]
	}
	switch t.Kind {
	case logic.TVar:
		return STerm{Var: t.Name, Shift: shift}, nil
	case logic.TConst:
		n, err := strconv.Atoi(t.Name)
		if err != nil || n < 0 {
			return STerm{}, fmt.Errorf("nsucc: constant %q is not a natural numeral", t.Name)
		}
		return STerm{Shift: shift + n}, nil
	}
	return STerm{}, fmt.Errorf("nsucc: bad term kind %d", t.Kind)
}

// Render converts a canonical term back to a logic term.
func Render(t STerm) logic.Term {
	if t.IsConst() {
		return logic.Const(strconv.Itoa(t.Shift))
	}
	out := logic.Var(t.Var)
	for i := 0; i < t.Shift; i++ {
		out = logic.App(FuncS, out)
	}
	return out
}

// Eliminator performs Mal'cev-style quantifier elimination for N'.
type Eliminator struct{}

// Eliminate implements domain.Eliminator.
func (e Eliminator) Eliminate(ctx context.Context, f *logic.Formula) (*logic.Formula, error) {
	g, err := domain.EliminateQuantifiers(ctx, f, e.elimExists, true)
	if err != nil {
		return nil, err
	}
	return logic.Simplify(g), nil
}

// equality is one canonical (in)equality between successor terms.
type equality struct {
	a, b     STerm
	positive bool
}

// normalize shifts both sides so neither is negative (adding the same
// amount to both sides of an equality over ℕ is an equivalence whenever the
// conjunct also carries the definedness guards, which substitution adds).
func (eq equality) normalize() equality {
	add := 0
	if eq.a.Shift < -add {
		add = -eq.a.Shift
	}
	if eq.b.Shift < -add {
		add = -eq.b.Shift
	}
	eq.a.Shift += add
	eq.b.Shift += add
	return eq
}

// render converts back to a literal.
func (eq equality) render() *logic.Formula {
	f := logic.Eq(Render(eq.a), Render(eq.b))
	if !eq.positive {
		return logic.Not(f)
	}
	return f
}

// evalGround decides a ground equality.
func (eq equality) evalGround() (bool, bool) {
	if !eq.a.IsConst() || !eq.b.IsConst() {
		// Equal variables with shifts: x^(n) = x^(m) ⟺ n = m.
		if eq.a.Var == eq.b.Var && eq.a.Var != "" {
			return (eq.a.Shift == eq.b.Shift) == eq.positive, true
		}
		return false, false
	}
	return (eq.a.Shift == eq.b.Shift) == eq.positive, true
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
	eqs := make([]equality, 0, len(lits))
	for _, lit := range lits {
		atom, positive := logic.LiteralAtom(lit)
		if !atom.IsEq() {
			return nil, fmt.Errorf("nsucc: unknown predicate %q", atom.Pred)
		}
		a, err := Parse(atom.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := Parse(atom.Args[1])
		if err != nil {
			return nil, err
		}
		eqs = append(eqs, equality{a: a, b: b, positive: positive})
	}
	return e.solve(x, eqs)
}

// solve eliminates ∃x from canonical equalities, following the paper: a
// positive equality lets x be substituted away (with definedness guards for
// downward shifts); a conjunct of inequalities only is satisfiable outright.
func (e Eliminator) solve(x string, eqs []equality) (*logic.Formula, error) {
	// Resolve trivial atoms and find a positive equality involving x.
	var rest []equality
	var xEqs []equality
	for _, eq := range eqs {
		eq = eq.normalize()
		// Orient x to the a-side when present.
		if eq.b.Var == x && eq.a.Var != x {
			eq.a, eq.b = eq.b, eq.a
		}
		if v, ok := eq.evalGround(); ok {
			if !v {
				return logic.False(), nil
			}
			continue
		}
		if eq.a.Var == x {
			xEqs = append(xEqs, eq)
		} else {
			rest = append(rest, eq)
		}
	}
	if len(xEqs) == 0 {
		return renderAll(rest), nil
	}

	// Prefer a positive equality to substitute on.
	for i, eq := range xEqs {
		if !eq.positive {
			continue
		}
		// x^(n) = t: substitute x := t^(-n), guarding definedness.
		n := eq.a.Shift
		t := eq.b
		out := make([]equality, 0, len(eqs))
		out = append(out, rest...)
		// Definedness guards: t ≥ n, expressed as t ≠ 0, …, t ≠ n−1 (the
		// paper's "add the conjunction y ≠ 0 ∧ … ∧ y ≠ (n−1)"), which for a
		// constant t evaluates immediately.
		for g := 0; g < n; g++ {
			guard := equality{a: t, b: STerm{Shift: g}, positive: false}
			if v, ok := guard.evalGround(); ok {
				if !v {
					return logic.False(), nil
				}
				continue
			}
			out = append(out, guard)
		}
		target := STerm{Var: t.Var, Shift: t.Shift - n}
		for j, other := range xEqs {
			if j == i {
				continue
			}
			sub := equality{
				a:        substTerm(other.a, x, target),
				b:        substTerm(other.b, x, target),
				positive: other.positive,
			}
			sub = sub.normalize()
			if v, ok := sub.evalGround(); ok {
				if !v {
					return logic.False(), nil
				}
				continue
			}
			out = append(out, sub)
		}
		return renderAll(out), nil
	}

	// Only inequalities constrain x: each excludes at most one value, and ℕ
	// is infinite, so ∃x holds whenever the rest does.
	return renderAll(rest), nil
}

func substTerm(t STerm, x string, target STerm) STerm {
	if t.Var != x {
		return t
	}
	return STerm{Var: target.Var, Shift: target.Shift + t.Shift}
}

func renderAll(eqs []equality) *logic.Formula {
	out := make([]*logic.Formula, len(eqs))
	for i, eq := range eqs {
		out[i] = eq.render()
	}
	return logic.And(out...)
}

// Domain is ℕ with successor, implementing domain.Domain and
// domain.Enumerator.
type Domain struct{}

// Name implements domain.Domain.
func (Domain) Name() string { return "nsucc" }

// ConstValue implements domain.Interp.
func (Domain) ConstValue(name string) (domain.Value, error) {
	n, err := strconv.ParseInt(name, 10, 64)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("nsucc: constant %q is not a natural numeral", name)
	}
	return domain.Int(n), nil
}

// ConstName implements domain.Domain.
func (Domain) ConstName(v domain.Value) string { return v.Key() }

// Func implements domain.Interp.
func (Domain) Func(name string, args []domain.Value) (domain.Value, error) {
	if name != FuncS || len(args) != 1 {
		return nil, fmt.Errorf("nsucc: unknown function %s/%d", name, len(args))
	}
	n, ok := args[0].(domain.Int)
	if !ok {
		return nil, fmt.Errorf("nsucc: non-integer value %v", args[0])
	}
	return n + 1, nil
}

// Pred implements domain.Interp; the signature has no predicates beyond
// equality.
func (Domain) Pred(name string, args []domain.Value) (bool, error) {
	return false, fmt.Errorf("nsucc: unknown predicate %q", name)
}

// Element implements domain.Enumerator.
func (Domain) Element(i int) domain.Value { return domain.Int(i) }

// Decider returns the decision procedure for N' (Theorem 2.6's engine).
func Decider() domain.Decider {
	return domain.QEDecider{Elim: Eliminator{}, Interp: Domain{}}
}
