package autarith

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/presburger"
)

// Serving metrics. Compile is the entry of the Presburger §1.1
// enumeration and of relative safety over ℕ, which answer from the
// automaton or, on any other error than a cancellation, from Cooper's
// elimination: hits count the automata served, refusals the constructions
// the MaxCells cap refused.
var (
	mTierHits     = obs.NewCounter("autarith.tier.hits")
	mTierRefusals = obs.NewCounter("autarith.tier.refusals")
)

// Compile translates a Presburger formula (the same surface syntax the
// Cooper engine accepts: lt/le/gt/ge/=, dvd, add/sub/mul/neg terms) into an
// automaton whose tracks are the formula's free variables, in sorted
// order, and whose relation is the formula's satisfaction set over ℕ.
//
// The construction is bounded: it fails with ErrTooLarge once the
// automata it builds pass MaxCells transition cells, and with the
// context's error (a nil ctx never cancels) once ctx is done.
func Compile(ctx context.Context, f *logic.Formula) (*DFA, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "autarith.compile")
	defer sp.End()
	d, cells, err := compileFree(ctx, f)
	sp.Arg("cells", int64(cells))
	switch {
	case err == nil:
		mTierHits.Inc()
		sp.Arg("states", int64(d.NumStates()))
	case errors.Is(err, ErrTooLarge):
		mTierRefusals.Inc()
	}
	return d, err
}

// compileFree builds f's automaton over its free variables, copied out of
// the construction's scratch, and returns the cells its construction
// charged.
func compileFree(ctx context.Context, f *logic.Formula) (*DFA, int, error) {
	b := newBudget(ctx)
	defer b.release()
	d, err := b.compile(f)
	if err == nil {
		d, err = b.cylindrify(d, f.FreeVars())
	}
	if err != nil {
		return nil, b.cells, err
	}
	return d.clone(), b.cells, nil
}

func (b *budget) compile(f *logic.Formula) (*DFA, error) {
	switch f.Kind {
	case logic.FTrue, logic.FFalse:
		return b.trivial(f.Kind == logic.FTrue)
	case logic.FAtom:
		return b.compileAtom(f)
	case logic.FNot:
		inner, err := b.compile(f.Sub[0])
		if err != nil {
			return nil, err
		}
		return complement(inner), nil
	case logic.FAnd, logic.FOr:
		if len(f.Sub) == 0 {
			return b.trivial(f.Kind == logic.FAnd)
		}
		combine := and
		if f.Kind == logic.FOr {
			combine = or
		}
		out, err := b.compile(f.Sub[0])
		for _, s := range f.Sub[1:] {
			if err != nil {
				break
			}
			var d *DFA
			if d, err = b.compile(s); err == nil {
				out, err = b.aligned(out, d, combine)
			}
		}
		return out, err
	case logic.FImplies, logic.FIff:
		x, err := b.compile(f.Sub[0])
		if err != nil {
			return nil, err
		}
		y, err := b.compile(f.Sub[1])
		if err != nil {
			return nil, err
		}
		if f.Kind == logic.FIff {
			return b.aligned(x, y, iff)
		}
		return b.aligned(complement(x), y, or)
	case logic.FExists, logic.FForall:
		inner, err := b.compile(f.Sub[0])
		if err != nil {
			return nil, err
		}
		if f.Kind == logic.FExists {
			return b.exists(inner, f.Var)
		}
		return b.forall(inner, f.Var)
	}
	return nil, fmt.Errorf("autarith: cannot compile %v", f)
}

// trivial is the 0-track automaton of the always/never relation.
func (b *budget) trivial(accept bool) (*DFA, error) {
	bl, err := b.newBuilder(nil)
	if err != nil {
		return nil, err
	}
	if _, err := bl.add(accept); err != nil {
		return nil, err
	}
	return bl.build(0), nil
}

func (b *budget) compileAtom(f *logic.Formula) (*DFA, error) {
	switch f.Pred {
	case logic.EqPred, presburger.PredLt, presburger.PredLe, presburger.PredGt, presburger.PredGe:
		if len(f.Args) != 2 {
			return nil, fmt.Errorf("autarith: %s expects 2 arguments", f.Pred)
		}
		x, err := presburger.ParseLinear(f.Args[0])
		if err != nil {
			return nil, err
		}
		y, err := presburger.ParseLinear(f.Args[1])
		if err != nil {
			return nil, err
		}
		// x − y = a·v + c.
		a, c, err := b.fromLinear(x.Sub(y))
		if err != nil {
			return nil, err
		}
		switch f.Pred {
		case presburger.PredLt: // a·v + c < 0 ⟺ a·v ≤ −c−1
			return b.linearAtom(a, -c-1, false)
		case presburger.PredLe:
			return b.linearAtom(a, -c, false)
		case presburger.PredGt: // −a·v − c < 0
			return b.linearAtom(a.negate(), c-1, false)
		case presburger.PredGe:
			return b.linearAtom(a.negate(), c, false)
		default:
			return b.linearAtom(a, -c, true)
		}
	case presburger.PredDvd:
		if len(f.Args) != 2 {
			return nil, fmt.Errorf("autarith: dvd expects 2 arguments")
		}
		k, err := presburger.ParseLinear(f.Args[0])
		if err != nil {
			return nil, err
		}
		if !k.IsConst() || k.Const.Sign() <= 0 {
			return nil, fmt.Errorf("autarith: dvd modulus must be a positive numeral")
		}
		// A modulus past maxModulus would overflow the residue arithmetic
		// (and its automaton would pass the cap anyway).
		m, ok := k.Const.Int64()
		if !ok || m > maxModulus {
			return nil, fmt.Errorf("%w: dvd modulus %v", ErrTooLarge, k.Const)
		}
		t, err := presburger.ParseLinear(f.Args[1])
		if err != nil {
			return nil, err
		}
		a, c, err := b.fromLinear(t)
		if err != nil {
			return nil, err
		}
		return b.dvdAtom(a, c, m)
	}
	return nil, fmt.Errorf("autarith: unknown predicate %q", f.Pred)
}

// Decide decides a Presburger sentence over ℕ automata-theoretically,
// within the same MaxCells cap as Compile, and like Compile stops with
// ctx's error once ctx is done.
func Decide(ctx context.Context, sentence *logic.Formula) (bool, error) {
	ctx, sp := obs.StartSpanCtx(ctx, "autarith.decide")
	defer sp.End()
	mAutarithDecisions.Inc()
	if fv := sentence.FreeVars(); len(fv) != 0 {
		return false, fmt.Errorf("autarith: Decide on open formula (free vars %v)", fv)
	}
	b := newBudget(ctx)
	defer b.release()
	d, err := b.compile(sentence)
	if err != nil {
		return false, err
	}
	sp.Arg("dfa_states", int64(d.NumStates()))
	// All tracks are projected away, so the single-symbol language encodes
	// the empty tuple; by zero-stability its membership shows at the
	// initial state.
	return d.Accept[d.Initial], nil
}
