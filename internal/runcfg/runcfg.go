// Package runcfg carries how one evaluation runs, and what it counted, on
// the evaluation's context.
//
// The paper's §1.1 algorithm answers a query by deciding ground sentences;
// the plan compiler and the decision cache are optimizations that must
// return exactly what it returns. A Config on the context says which of
// them one evaluation skips, and whether finq.Eval records a qstats row
// and pprof labels, so the algorithm and its optimized form can run side
// by side in one process. The CLIs' -plan and -cache flags and finqd's
// server.Config set it; tests and the bench table set it per evaluation.
//
// Counts are one evaluation's plan-cache and decision-cache traffic and
// the tier of the plan that served it, which finq.Eval folds into the
// evaluation's qstats row.
package runcfg

import (
	"context"
	"sync/atomic"
)

// Config says what one evaluation leaves out. The zero value leaves out
// nothing, and is finqd's posture.
type Config struct {
	// NoPlan evaluates without compiled plans: the generic interpreter
	// answers active-domain queries, and the §1.1 loop asks the automaton
	// or the decider (-plan=off).
	NoPlan bool
	// NoCache decides every ground sentence afresh, past the decision
	// cache (-cache=off).
	NoCache bool
	// NoQStats records no per-query stats row, and so counts nothing.
	NoQStats bool
	// NoProf sets no pprof labels on the evaluation and skips its
	// allocation meter.
	NoProf bool
}

// Counts is one evaluation's cache traffic. The fields are atomics, so an
// evaluation may count from any goroutine it starts.
type Counts struct {
	PlanHits, PlanMisses   atomic.Int64
	CacheHits, CacheMisses atomic.Int64
	tier                   atomic.Pointer[string]
}

// SetTier records the tier of the plan that produced the answer.
func (c *Counts) SetTier(tier string) { c.tier.Store(&tier) }

// Tier is the tier of the last plan that served the evaluation: "" when
// none did (the interpreter, the automaton or the decider answered).
func (c *Counts) Tier() string {
	if p := c.tier.Load(); p != nil {
		return *p
	}
	return ""
}

type ctxKey struct{}

type run struct {
	cfg    Config
	counts *Counts
}

// With returns a context carrying cfg, and the Counts ctx carries.
func With(ctx context.Context, cfg Config) context.Context {
	r := lookup(ctx)
	r.cfg = cfg
	return context.WithValue(ctx, ctxKey{}, r)
}

// WithCounts returns a context carrying fresh Counts, and ctx's Config,
// plus the Counts for reading after the evaluation.
func WithCounts(ctx context.Context) (context.Context, *Counts) {
	r := lookup(ctx)
	r.counts = &Counts{}
	return context.WithValue(ctx, ctxKey{}, r), r.counts
}

// From returns the Config and the Counts ctx carries. A nil context, or
// one that carries neither, gives the zero Config and nil Counts.
func From(ctx context.Context) (Config, *Counts) {
	r := lookup(ctx)
	return r.cfg, r.counts
}

func lookup(ctx context.Context) run {
	if ctx == nil {
		return run{}
	}
	r, _ := ctx.Value(ctxKey{}).(run)
	return r
}
