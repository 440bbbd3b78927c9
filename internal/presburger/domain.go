package presburger

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/deccache"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
)

// QE metrics for the Cooper engine, mirroring the traces eliminator's.
var (
	mCooperCalls   = obs.NewCounter("qe.presburger.eliminations")
	mCooperBlowups = obs.NewCounter("qe.presburger.blowups")
	hCooperSizeIn  = obs.NewHistogram("qe.presburger.size_in")
	hCooperSizeOut = obs.NewHistogram("qe.presburger.size_out")
)

// Eliminator performs quantifier elimination for Presburger arithmetic via
// Cooper's algorithm. With Integers false (the default) quantifiers range
// over ℕ — the paper's domains — by relativizing each quantifier to x ≥ 0;
// with Integers true they range over ℤ.
type Eliminator struct {
	Integers bool
	// NoBoundDedup disables boundary-set deduplication inside Cooper's
	// algorithm; only for the ablation benchmarks.
	NoBoundDedup bool
	// MaxNodes bounds the intermediate formula size; Cooper's algorithm is
	// worst-case super-exponential (each eliminated quantifier multiplies
	// the matrix by its divisor lcm times its boundary-set size), and the
	// guard turns a blowup into an error instead of an endless run.
	// 0 means DefaultMaxNodes.
	MaxNodes int

	// ctx is the context Eliminate or Decide runs under, polled inside
	// each step: per disjunct Cooper builds, per bound it deduplicates,
	// and per connective rendered or canonicalized. So a request-scoped
	// deadline abandons a Cooper run mid-step rather than wait for the
	// step or the size guard. It stays nil under a context that can never
	// be cancelled, where each poll is a nil check.
	ctx context.Context
}

// under returns e polling ctx within its steps (see the ctx field).
func (e Eliminator) under(ctx context.Context) Eliminator {
	if ctx.Done() != nil {
		e.ctx = ctx
	}
	return e
}

// checkCtx reports the context's error, if a context is set and cancelled.
func (e Eliminator) checkCtx() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// DefaultMaxNodes is the default intermediate-size bound.
const DefaultMaxNodes = 2_000_000

func (e Eliminator) maxNodes() int {
	if e.MaxNodes > 0 {
		return e.MaxNodes
	}
	return DefaultMaxNodes
}

// ErrTooLarge reports that elimination exceeded the size guard.
var ErrTooLarge = fmt.Errorf("presburger: intermediate formula exceeds the size bound (Cooper blowup)")

// Eliminate implements domain.Eliminator.
func (e Eliminator) Eliminate(ctx context.Context, f *logic.Formula) (*logic.Formula, error) {
	return e.under(ctx).eliminate(ctx, f)
}

func (e Eliminator) eliminate(ctx context.Context, f *logic.Formula) (*logic.Formula, error) {
	_, sp := obs.StartSpanCtx(ctx, "qe.presburger.eliminate")
	defer sp.End()
	mCooperCalls.Inc()
	sizeIn := int64(f.Size())
	hCooperSizeIn.Observe(sizeIn)
	sp.Arg("size_in", sizeIn)
	g, err := domain.EliminateQuantifiers(ctx, f, e.elimExists, true)
	if err != nil {
		return nil, err
	}
	g = logic.Simplify(g)
	sizeOut := int64(g.Size())
	hCooperSizeOut.Observe(sizeOut)
	sp.Arg("size_out", sizeOut)
	return g, nil
}

func (e Eliminator) elimExists(x string, body *logic.Formula) (*logic.Formula, error) {
	if !e.Integers {
		// Relativize to ℕ: ∃x∈ℕ φ ⟺ ∃x∈ℤ (x ≥ 0 ∧ φ).
		body = logic.And(logic.Atom(PredGe, logic.Var(x), logic.Const("0")), body)
	}
	g, err := e.canonicalize(logic.NNF(body))
	if err != nil {
		return nil, err
	}
	out, err := e.cooper(x, g)
	if err != nil {
		if errors.Is(err, ErrTooLarge) {
			mCooperBlowups.Inc()
		}
		return nil, err
	}
	return e.render(out)
}

// Decide implements domain.Decider: it decides a Presburger sentence
// (over ℕ unless Integers is set) by eliminating its quantifiers and
// evaluating the ground residue.
func (e Eliminator) Decide(ctx context.Context, sentence *logic.Formula) (bool, error) {
	if fv := sentence.FreeVars(); len(fv) != 0 {
		return false, fmt.Errorf("presburger: Decide on open formula (free vars %v)", fv)
	}
	e = e.under(ctx)
	qfFormula, err := e.eliminate(ctx, sentence)
	if err != nil {
		return false, err
	}
	g, err := e.canonicalize(logic.NNF(qfFormula))
	if err != nil {
		return false, err
	}
	return g.eval(nil)
}

// Equivalent decides whether two formulas with the same free variables
// agree on all assignments: ∀x̄ (f ↔ g). It decides Theorem 2.5's
// relative-safety criterion ("the equivalence problem for pure domain
// formulas is, by the condition of the theorem, decidable") wherever the
// automaton of internal/autarith refuses a formula.
func (e Eliminator) Equivalent(ctx context.Context, f, g *logic.Formula) (bool, error) {
	vars := logic.SortedUnique(append(f.FreeVars(), g.FreeVars()...))
	return e.Decide(ctx, logic.ForallAll(vars, logic.Iff(f, g)))
}

// Domain is ℕ with the full Presburger signature, implementing
// domain.Domain and domain.Enumerator. Constants are decimal numerals.
type Domain struct{}

// Name implements domain.Domain.
func (Domain) Name() string { return "presburger" }

// ConstValue implements domain.Interp.
func (Domain) ConstValue(name string) (domain.Value, error) {
	n, err := strconv.ParseInt(name, 10, 64)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("presburger: constant %q is not a natural numeral", name)
	}
	return domain.Int(n), nil
}

// ConstName implements domain.Domain.
func (Domain) ConstName(v domain.Value) string { return v.Key() }

// Func implements domain.Interp. Subtraction is truncated (monus) to stay
// within ℕ, matching the paper's "natural numbers with <, +, and −".
func (Domain) Func(name string, args []domain.Value) (domain.Value, error) {
	get := func(i int) (int64, error) {
		n, ok := args[i].(domain.Int)
		if !ok {
			return 0, fmt.Errorf("presburger: non-integer value %v", args[i])
		}
		return int64(n), nil
	}
	binary := func() (int64, int64, error) {
		if len(args) != 2 {
			return 0, 0, fmt.Errorf("presburger: %s expects 2 arguments", name)
		}
		a, err := get(0)
		if err != nil {
			return 0, 0, err
		}
		b, err := get(1)
		return a, b, err
	}
	switch name {
	case FuncAdd:
		a, b, err := binary()
		return domain.Int(a + b), err
	case FuncSub:
		a, b, err := binary()
		if a < b {
			return domain.Int(0), err
		}
		return domain.Int(a - b), err
	case FuncMul:
		a, b, err := binary()
		return domain.Int(a * b), err
	case FuncNeg:
		return nil, fmt.Errorf("presburger: neg is not a function of ℕ")
	}
	return nil, fmt.Errorf("presburger: unknown function %q", name)
}

// Pred implements domain.Interp.
func (Domain) Pred(name string, args []domain.Value) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("presburger: %s expects 2 arguments", name)
	}
	a, ok := args[0].(domain.Int)
	if !ok {
		return false, fmt.Errorf("presburger: non-integer value %v", args[0])
	}
	b, ok := args[1].(domain.Int)
	if !ok {
		return false, fmt.Errorf("presburger: non-integer value %v", args[1])
	}
	switch name {
	case PredLt:
		return a < b, nil
	case PredLe:
		return a <= b, nil
	case PredGt:
		return a > b, nil
	case PredGe:
		return a >= b, nil
	case PredDvd:
		if a <= 0 {
			return false, fmt.Errorf("presburger: dvd modulus must be positive")
		}
		return int64(b)%int64(a) == 0, nil
	}
	return false, fmt.Errorf("presburger: unknown predicate %q", name)
}

// Element implements domain.Enumerator: 0, 1, 2, …
func (Domain) Element(i int) domain.Value { return domain.Int(i) }

// Decider returns the decision procedure for ℕ with the Presburger
// signature, memoized behind a bounded decision cache (a no-op pass-through
// when caching is disabled; see internal/deccache).
func Decider() domain.Decider {
	return deccache.WrapDomain("presburger", Eliminator{}, deccache.DefaultCapacity)
}
