// Package presburger implements Presburger arithmetic — the first-order
// theory of the integers (and, relativized, the naturals) with addition and
// order — including Cooper's quantifier-elimination algorithm and the
// derived decision procedure.
//
// The paper's Section 2 positive results ride on this package: (ℕ, <) and
// its extension (ℕ, <, +, −) are decidable domains for which finitization
// (Theorem 2.2) yields a recursive syntax for finite queries and relative
// safety is decidable (Theorem 2.5). Both theorems become executable here
// because equivalence of pure-domain formulas is decided by Cooper's
// algorithm.
//
// Formula conventions: terms are built from variables, decimal numeral
// constants (negative numerals allowed), and the functions "add"(a,b),
// "sub"(a,b), "mul"(k,t) (one side a numeral), "neg"(t). Atoms are
// "lt"(a,b), "le"(a,b), "gt"(a,b), "ge"(a,b), equality, and divisibility
// "dvd"(k, t) with k a positive numeral constant.
package presburger

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/logic"
)

// Function and predicate symbol spellings.
const (
	FuncAdd = "add"
	FuncSub = "sub"
	FuncMul = "mul"
	FuncNeg = "neg"
	PredLt  = "lt"
	PredLe  = "le"
	PredGt  = "gt"
	PredGe  = "ge"
	PredDvd = "dvd"
)

// LinearTerm is a linear combination of variables plus a constant:
// Σ coeff_v · v + Const. Coeffs is sorted by variable and holds only
// nonzero coefficients. Terms are immutable: operations return new terms
// that may share their operands' slices, so Coeffs must not be modified.
type LinearTerm struct {
	Coeffs []Coeff
	Const  Num
}

// Coeff is one variable's coefficient in a linear term.
type Coeff struct {
	Var string
	K   Num
}

// FromConst returns the constant term n.
func FromConst(n Num) LinearTerm { return LinearTerm{Const: n} }

// FromVar returns the term 1·name.
func FromVar(name string) LinearTerm {
	return LinearTerm{Coeffs: []Coeff{{Var: name, K: NumOf(1)}}}
}

// index returns the position of v in t.Coeffs, or -1.
func (t LinearTerm) index(v string) int {
	for i, c := range t.Coeffs {
		if c.Var == v {
			return i
		}
	}
	return -1
}

// Coeff returns the coefficient of variable v (zero if absent).
func (t LinearTerm) Coeff(v string) Num {
	if i := t.index(v); i >= 0 {
		return t.Coeffs[i].K
	}
	return Num{}
}

// IsConst reports whether the term has no variables.
func (t LinearTerm) IsConst() bool { return len(t.Coeffs) == 0 }

// Add returns t + u.
func (t LinearTerm) Add(u LinearTerm) LinearTerm { return t.plus(-1, NumOf(1), u) }

// Sub returns t − u.
func (t LinearTerm) Sub(u LinearTerm) LinearTerm { return t.plus(-1, NumOf(-1), u) }

// Neg returns −t.
func (t LinearTerm) Neg() LinearTerm { return t.Scale(NumOf(-1)) }

// Scale returns k·t.
func (t LinearTerm) Scale(k Num) LinearTerm {
	switch {
	case k.Sign() == 0:
		return LinearTerm{}
	case k.Cmp(NumOf(1)) == 0:
		return t
	}
	out := make([]Coeff, len(t.Coeffs))
	for i, c := range t.Coeffs {
		out[i] = Coeff{Var: c.Var, K: c.K.Mul(k)}
	}
	return LinearTerm{Coeffs: out, Const: t.Const.Mul(k)}
}

// AddInt returns t + n.
func (t LinearTerm) AddInt(n int64) LinearTerm {
	return LinearTerm{Coeffs: t.Coeffs, Const: t.Const.Add(NumOf(n))}
}

// Subst returns t with variable v replaced by the term u: the v-coefficient
// times u is folded in.
func (t LinearTerm) Subst(v string, u LinearTerm) LinearTerm {
	i := t.index(v)
	if i < 0 {
		return t
	}
	return t.plus(i, t.Coeffs[i].K, u)
}

// unit returns factor·t with v's coefficient replaced by its sign:
// Cooper's rename of δ·v to a unit v, where δ is factor·|coefficient|.
func (t LinearTerm) unit(v string, factor Num) LinearTerm {
	out := make([]Coeff, len(t.Coeffs))
	for i, c := range t.Coeffs {
		k := NumOf(int64(c.K.Sign()))
		if c.Var != v {
			k = c.K.Mul(factor)
		}
		out[i] = Coeff{Var: c.Var, K: k}
	}
	return LinearTerm{Coeffs: out, Const: t.Const.Mul(factor)}
}

// plus returns t + k·u, leaving out t's coefficient at index skip (none
// when skip is -1). It merges the two sorted coefficient lists and shares
// t's when u has no variables.
func (t LinearTerm) plus(skip int, k Num, u LinearTerm) LinearTerm {
	c := t.Const.Add(u.Const.Mul(k))
	n := len(t.Coeffs) + len(u.Coeffs)
	switch {
	case len(u.Coeffs) == 0 && skip < 0:
		return LinearTerm{Coeffs: t.Coeffs, Const: c}
	case skip >= 0:
		n--
	}
	if n == 0 {
		return LinearTerm{Const: c}
	}
	out := make([]Coeff, 0, n)
	i, j := 0, 0
	for i < len(t.Coeffs) || j < len(u.Coeffs) {
		if i == skip {
			i++
			continue
		}
		switch {
		case j == len(u.Coeffs) || i < len(t.Coeffs) && t.Coeffs[i].Var < u.Coeffs[j].Var:
			out = append(out, t.Coeffs[i])
			i++
		case i == len(t.Coeffs) || u.Coeffs[j].Var < t.Coeffs[i].Var:
			out = append(out, Coeff{Var: u.Coeffs[j].Var, K: u.Coeffs[j].K.Mul(k)})
			j++
		default:
			if s := t.Coeffs[i].K.Add(u.Coeffs[j].K.Mul(k)); s.Sign() != 0 {
				out = append(out, Coeff{Var: t.Coeffs[i].Var, K: s})
			}
			i++
			j++
		}
	}
	return LinearTerm{Coeffs: out, Const: c}
}

// Equal reports structural equality.
func (t LinearTerm) Equal(u LinearTerm) bool {
	if t.Const.Cmp(u.Const) != 0 || len(t.Coeffs) != len(u.Coeffs) {
		return false
	}
	for i, c := range t.Coeffs {
		if c.Var != u.Coeffs[i].Var || c.K.Cmp(u.Coeffs[i].K) != 0 {
			return false
		}
	}
	return true
}

// appendKey appends an encoding of t to buf that two terms share iff they
// are Equal: the number of coefficients, each variable with its length
// and its coefficient, then the constant.
func (t LinearTerm) appendKey(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.Coeffs)))
	for _, c := range t.Coeffs {
		buf = binary.AppendUvarint(buf, uint64(len(c.Var)))
		buf = c.K.appendKey(append(buf, c.Var...))
	}
	return t.Const.appendKey(buf)
}

// Eval evaluates the term under an integer environment; every variable must
// be bound.
func (t LinearTerm) Eval(env map[string]Num) (Num, error) {
	out := t.Const
	for _, c := range t.Coeffs {
		val, ok := env[c.Var]
		if !ok {
			return Num{}, fmt.Errorf("presburger: unbound variable %q", c.Var)
		}
		out = out.Add(c.K.Mul(val))
	}
	return out, nil
}

// String renders the term, e.g. "2*x + y - 3".
func (t LinearTerm) String() string {
	var b strings.Builder
	one := NumOf(1)
	for i, c := range t.Coeffs {
		k := c.K
		switch {
		case i == 0 && k.Sign() < 0:
			b.WriteString("-")
			k = k.Neg()
		case i == 0:
		case k.Sign() > 0:
			b.WriteString(" + ")
		default:
			b.WriteString(" - ")
			k = k.Neg()
		}
		if k.Cmp(one) != 0 {
			b.WriteString(k.String() + "*")
		}
		b.WriteString(c.Var)
	}
	switch {
	case len(t.Coeffs) == 0:
		b.WriteString(t.Const.String())
	case t.Const.Sign() > 0:
		b.WriteString(" + " + t.Const.String())
	case t.Const.Sign() < 0:
		b.WriteString(" - " + t.Const.Neg().String())
	}
	return b.String()
}

// ParseLinear interprets a logic term as a linear term.
func ParseLinear(t logic.Term) (LinearTerm, error) {
	switch t.Kind {
	case logic.TVar:
		return FromVar(t.Name), nil
	case logic.TConst:
		n, ok := parseNum(t.Name)
		if !ok {
			return LinearTerm{}, fmt.Errorf("presburger: constant %q is not a numeral", t.Name)
		}
		return FromConst(n), nil
	case logic.TApp:
		switch t.Name {
		case FuncAdd, FuncSub:
			if len(t.Args) != 2 {
				return LinearTerm{}, fmt.Errorf("presburger: %s expects 2 arguments", t.Name)
			}
			a, err := ParseLinear(t.Args[0])
			if err != nil {
				return LinearTerm{}, err
			}
			b, err := ParseLinear(t.Args[1])
			if err != nil {
				return LinearTerm{}, err
			}
			if t.Name == FuncAdd {
				return a.Add(b), nil
			}
			return a.Sub(b), nil
		case FuncNeg:
			if len(t.Args) != 1 {
				return LinearTerm{}, fmt.Errorf("presburger: neg expects 1 argument")
			}
			a, err := ParseLinear(t.Args[0])
			if err != nil {
				return LinearTerm{}, err
			}
			return a.Neg(), nil
		case FuncMul:
			if len(t.Args) != 2 {
				return LinearTerm{}, fmt.Errorf("presburger: mul expects 2 arguments")
			}
			a, err := ParseLinear(t.Args[0])
			if err != nil {
				return LinearTerm{}, err
			}
			b, err := ParseLinear(t.Args[1])
			if err != nil {
				return LinearTerm{}, err
			}
			switch {
			case a.IsConst():
				return b.Scale(a.Const), nil
			case b.IsConst():
				return a.Scale(b.Const), nil
			default:
				return LinearTerm{}, fmt.Errorf("presburger: nonlinear product %v", t)
			}
		}
		return LinearTerm{}, fmt.Errorf("presburger: unknown function %q", t.Name)
	}
	return LinearTerm{}, fmt.Errorf("presburger: bad term kind %d", t.Kind)
}

// Render converts a linear term back to a logic term (a right-nested sum).
func Render(t LinearTerm) logic.Term {
	parts := make([]logic.Term, 0, len(t.Coeffs)+1)
	for _, c := range t.Coeffs {
		if c.K.Cmp(NumOf(1)) == 0 {
			parts = append(parts, logic.Var(c.Var))
		} else {
			parts = append(parts, logic.App(FuncMul, logic.Const(c.K.String()), logic.Var(c.Var)))
		}
	}
	if t.Const.Sign() != 0 || len(parts) == 0 {
		parts = append(parts, logic.Const(t.Const.String()))
	}
	out := parts[len(parts)-1]
	for i := len(parts) - 2; i >= 0; i-- {
		out = logic.App(FuncAdd, parts[i], out)
	}
	return out
}
