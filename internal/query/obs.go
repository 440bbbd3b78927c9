package query

import "repro/internal/obs"

// Package metrics. Counters are batched where a loop is hot: EvalActiveCtx
// counts leaf assignments locally and adds once per call, so the inner
// recursion carries no atomic traffic.
var (
	mTranslateCalls = obs.NewCounter("query.translate.calls")
	mTranslateAtoms = obs.NewCounter("query.translate.atoms")

	mEvalCalls   = obs.NewCounter("query.eval.calls")
	mEvalRows    = obs.NewCounter("query.eval.rows")
	mEvalAssigns = obs.NewCounter("query.eval.assignments")
	hEvalDomain  = obs.NewHistogram("query.eval.active_domain_size")

	mEnumCalls     = obs.NewCounter("query.enumerate.calls")
	mEnumRows      = obs.NewCounter("query.enumerate.rows")
	mEnumDecisions = obs.NewCounter("query.enumerate.decisions")
	mEnumProbes    = obs.NewCounter("query.enumerate.probes")
	mEnumExhausted = obs.NewCounter("query.enumerate.budget_exhausted")
)
