// Package domain defines the abstraction the paper calls a "domain": a
// countably infinite universe together with interpreted constants, functions,
// and predicates, over which database relations are laid and queries are
// asked.
//
// The paper's two practicality requirements are modeled as optional
// capabilities:
//
//   - recursiveness — all functions and predicates computable — corresponds
//     to the Interp interface (every implementation here is recursive);
//   - decidability of the first-order theory — corresponds to the Decider
//     interface, usually obtained from a quantifier Eliminator plus ground
//     evaluation.
//
// The §1.1 query-answering algorithm additionally needs constants for all
// elements (Namer) and a recursive enumeration of the universe (Enumerator).
// A domain that is Presburger arithmetic over ℕ under a rewrite says so
// (Naturals).
package domain

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/logic"
)

// Value is an element of some domain's universe. Implementations must be
// comparable via Key: two values of the same domain are equal iff their keys
// are equal.
type Value interface {
	// Key returns a string that uniquely identifies the value within its
	// domain; used for hashing tuples.
	Key() string
	// String renders the value for display.
	String() string
}

// Int is a natural-number value (ℕ domains).
type Int int64

// Key implements Value.
func (n Int) Key() string { return strconv.FormatInt(int64(n), 10) }

// String implements Value.
func (n Int) String() string { return strconv.FormatInt(int64(n), 10) }

// Word is a string value (word domains, including the trace domain T).
type Word string

// Key implements Value.
func (w Word) Key() string { return string(w) }

// String implements Value.
func (w Word) String() string { return string(w) }

// AppendKey appends v.Key() to b and returns the extended buffer. An Int
// is formatted straight into b, with no intermediate string.
func AppendKey(b []byte, v Value) []byte {
	if n, ok := v.(Int); ok {
		return strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, v.Key()...)
}

// Equal reports whether a and b are the same value, which is whether
// their keys are equal. Two Ints or two Words compare directly, without
// formatting either key.
func Equal(a, b Value) bool {
	switch x := a.(type) {
	case Int:
		if y, ok := b.(Int); ok {
			return x == y
		}
	case Word:
		if y, ok := b.(Word); ok {
			return x == y
		}
	}
	return a.Key() == b.Key()
}

// Interp interprets the symbols of a signature over concrete values. All
// implementations in this repository are recursive (computable), matching
// the paper's first practicality requirement.
type Interp interface {
	// ConstValue returns the value denoted by a constant symbol.
	ConstValue(name string) (Value, error)
	// Func applies a function symbol to argument values.
	Func(name string, args []Value) (Value, error)
	// Pred evaluates a predicate symbol on argument values. Equality
	// (logic.EqPred) is handled by callers via Equal and never reaches Pred.
	Pred(name string, args []Value) (bool, error)
}

// Domain is a named universe with an interpretation and a naming scheme for
// its elements ("we have constants for all the elements of the domain").
type Domain interface {
	Interp
	// Name identifies the domain ("nless", "nsucc", "eq", "traces", …).
	Name() string
	// ConstName returns a constant symbol denoting v, the inverse of
	// ConstValue. Every domain here names all its elements.
	ConstName(v Value) string
}

// Decider decides truth of pure-domain sentences — the paper's second
// practicality requirement ("decidability of the first-order theory of the
// domain").
//
// Deciders and eliminators take the caller's context and stop with its
// error once it is done. Nothing else bounds them in general: a Cooper
// elimination can grow super-exponentially, and over the trace domain a
// single decision can run unboundedly long (Theorem 3.3 reduces halting to
// query finiteness).
type Decider interface {
	// Decide reports whether the sentence holds in the domain. It is an
	// error to pass a formula with free variables or with symbols outside
	// the domain signature.
	Decide(ctx context.Context, sentence *logic.Formula) (bool, error)
}

// Eliminator performs quantifier elimination: Eliminate returns a
// quantifier-free formula equivalent to f over the domain (possibly in an
// enriched signature, as in the Reach Theory of Traces).
type Eliminator interface {
	Eliminate(ctx context.Context, f *logic.Formula) (*logic.Formula, error)
}

// Enumerator enumerates the countable universe: Element(0), Element(1), …
// visits every element exactly once. The §1.1 algorithm uses it to stream
// the rows of a finite answer.
type Enumerator interface {
	Element(i int) Value
}

// Naturals is a domain that is Presburger arithmetic over ℕ under a
// rewrite: an extension of (ℕ, <) within Presburger's signature (Theorem
// 2.5), or words under the shortlex isomorphism. ToPresburger rewrites a
// pure formula into Presburger arithmetic whose values are the domain's
// enumeration indices: Element(i₁), …, Element(iₖ) satisfy f iff i₁, …, iₖ
// satisfy the image. A symbol outside the domain's signature is an error.
// It is the one place that says which domains the automaton
// (internal/autarith) serves: their §1.1 enumeration, their relative
// safety, and their decider all work on the image.
type Naturals interface {
	Domain
	Enumerator
	ToPresburger(f *logic.Formula) (*logic.Formula, error)
}

// Verdict is the result of a budgeted semi-decision.
type Verdict int

const (
	// Unknown means the budget was exhausted before a verdict.
	Unknown Verdict = iota
	// Holds means the property was established.
	Holds
	// Fails means the negation was established.
	Fails
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Holds:
		return "holds"
	case Fails:
		return "fails"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// MarshalJSON encodes the verdict as its lower-case name ("holds",
// "fails", "unknown"), the wire form shared by the CLI -json output and
// the finqd /v1/safety endpoint.
func (v Verdict) MarshalJSON() ([]byte, error) {
	switch v {
	case Holds, Fails, Unknown:
		return []byte(`"` + v.String() + `"`), nil
	}
	return nil, fmt.Errorf("domain: marshal invalid verdict %d", int(v))
}

// UnmarshalJSON decodes the wire form written by MarshalJSON.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"holds"`:
		*v = Holds
	case `"fails"`:
		*v = Fails
	case `"unknown"`:
		*v = Unknown
	default:
		return fmt.Errorf("domain: unmarshal verdict %s: want \"holds\", \"fails\", or \"unknown\"", data)
	}
	return nil
}

// Env binds variables to values during evaluation.
type Env map[string]Value

// Clone returns a copy of the environment.
func (e Env) Clone() Env {
	out := make(Env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// EvalTerm evaluates a term under an interpretation and environment.
func EvalTerm(in Interp, env Env, t logic.Term) (Value, error) {
	switch t.Kind {
	case logic.TVar:
		v, ok := env[t.Name]
		if !ok {
			return nil, fmt.Errorf("domain: unbound variable %q", t.Name)
		}
		return v, nil
	case logic.TConst:
		return in.ConstValue(t.Name)
	case logic.TApp:
		args := make([]Value, len(t.Args))
		for i, a := range t.Args {
			v, err := EvalTerm(in, env, a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return in.Func(t.Name, args)
	}
	return nil, fmt.Errorf("domain: bad term kind %d", t.Kind)
}

// EvalQF evaluates a quantifier-free formula under an interpretation and
// environment. Equality atoms compare value keys; other atoms go to
// Interp.Pred.
func EvalQF(in Interp, env Env, f *logic.Formula) (bool, error) {
	switch f.Kind {
	case logic.FTrue:
		return true, nil
	case logic.FFalse:
		return false, nil
	case logic.FAtom:
		args := make([]Value, len(f.Args))
		for i, t := range f.Args {
			v, err := EvalTerm(in, env, t)
			if err != nil {
				return false, err
			}
			args[i] = v
		}
		if f.Pred == logic.EqPred {
			return Equal(args[0], args[1]), nil
		}
		return in.Pred(f.Pred, args)
	case logic.FNot:
		v, err := EvalQF(in, env, f.Sub[0])
		return !v, err
	case logic.FAnd:
		for _, s := range f.Sub {
			v, err := EvalQF(in, env, s)
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case logic.FOr:
		for _, s := range f.Sub {
			v, err := EvalQF(in, env, s)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	case logic.FImplies:
		a, err := EvalQF(in, env, f.Sub[0])
		if err != nil {
			return false, err
		}
		if !a {
			return true, nil
		}
		return EvalQF(in, env, f.Sub[1])
	case logic.FIff:
		a, err := EvalQF(in, env, f.Sub[0])
		if err != nil {
			return false, err
		}
		b, err := EvalQF(in, env, f.Sub[1])
		if err != nil {
			return false, err
		}
		return a == b, nil
	case logic.FExists, logic.FForall:
		return false, fmt.Errorf("domain: EvalQF on quantified formula %v", f)
	}
	return false, fmt.Errorf("domain: bad formula kind %d", f.Kind)
}

// QEDecider derives a Decider from a quantifier Eliminator plus ground
// evaluation under the domain's interpretation, which is exactly how the
// paper's Appendix proves Corollary A.4 ("the theory is decidable, because
// the model is recursive").
type QEDecider struct {
	Elim   Eliminator
	Interp Interp
}

// Decide implements Decider. The context reaches the eliminator and is
// polled again before the ground evaluation of the residue.
func (d QEDecider) Decide(ctx context.Context, sentence *logic.Formula) (bool, error) {
	if fv := sentence.FreeVars(); len(fv) != 0 {
		return false, fmt.Errorf("domain: Decide on open formula (free vars %v)", fv)
	}
	qf, err := d.Elim.Eliminate(ctx, sentence)
	if err != nil {
		return false, err
	}
	if !qf.QuantifierFree() {
		return false, fmt.Errorf("domain: eliminator left quantifiers in %v", qf)
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	return EvalQF(d.Interp, Env{}, qf)
}

// EliminateQuantifiers is the quantifier walk the eliminators share. It
// eliminates innermost quantifiers first: a quantifier's body is made
// quantifier-free, then ∃x goes to the domain's exists step and ∀x is
// ¬∃x¬, the negated result simplified unless simplify is false (an
// ablation). Connectives are rebuilt over their eliminated operands. The
// context is polled before each quantifier (exists may poll within its
// step too), so a cancelled one stops the walk with its error.
func EliminateQuantifiers(ctx context.Context, f *logic.Formula,
	exists func(x string, body *logic.Formula) (*logic.Formula, error), simplify bool) (*logic.Formula, error) {

	switch f.Kind {
	case logic.FExists, logic.FForall:
		body, err := EliminateQuantifiers(ctx, f.Sub[0], exists, simplify)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if f.Kind == logic.FExists {
			return exists(f.Var, body)
		}
		inner, err := exists(f.Var, logic.Not(body))
		if err != nil {
			return nil, err
		}
		if !simplify {
			return logic.Not(inner), nil
		}
		return logic.Simplify(logic.Not(inner)), nil
	case logic.FTrue, logic.FFalse, logic.FAtom:
		return f, nil
	}
	sub := make([]*logic.Formula, len(f.Sub))
	for i, s := range f.Sub {
		g, err := EliminateQuantifiers(ctx, s, exists, simplify)
		if err != nil {
			return nil, err
		}
		sub[i] = g
	}
	return &logic.Formula{Kind: f.Kind, Sub: sub}, nil
}
