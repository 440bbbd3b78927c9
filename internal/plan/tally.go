package plan

import (
	"context"
	"sync/atomic"
)

// Tally counts plan-cache traffic for one request, so per-query stats can
// attribute hits and misses (and the tier of the plan that served it) to
// the query that caused them. Carried through context like deccache's
// tally.
type Tally struct {
	// Hits counts plan-cache hits attributed to this request.
	Hits atomic.Int64
	// Misses counts compilations attributed to this request.
	Misses atomic.Int64
	// tier holds the tier of the last plan that served this request,
	// stored as an atomic pointer so concurrent evaluations sharing the
	// context stay race-free.
	tier atomic.Pointer[Tier]
}

// markServed records on the context's Tally, if any, that a plan of the
// given tier produced the request's answer.
func markServed(ctx context.Context, tier Tier) {
	if t := TallyFrom(ctx); t != nil {
		t.tier.Store(&tier)
	}
}

// Tier returns the tier of the last plan that served this request: ""
// when none did (the interpreter or the §1.1 decider answered).
func (t *Tally) Tier() Tier {
	if p := t.tier.Load(); p != nil {
		return *p
	}
	return ""
}

type tallyKey struct{}

// WithTally returns a context carrying a fresh Tally, plus the Tally for
// reading after evaluation.
func WithTally(ctx context.Context) (context.Context, *Tally) {
	t := &Tally{}
	return context.WithValue(ctx, tallyKey{}, t), t
}

// TallyFrom returns the Tally carried by ctx, or nil.
func TallyFrom(ctx context.Context) *Tally {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tallyKey{}).(*Tally)
	return t
}
