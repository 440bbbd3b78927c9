package query

import (
	"context"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/runcfg"
)

// The planner fast paths. Both evaluators consult the plan cache before
// interpreting: active-domain evaluation runs the compiled plan directly,
// and §1.1 enumeration asks an algebra-tier plan's materialized answer
// instead of the decider. Every fast path falls back to the generic
// interpreter rather than failing: plans are an optimization, never a
// semantic commitment.

// planActiveAnswer tries a compiled plan for active-domain evaluation.
// ok=false means the caller should interpret (planner off on the
// context's runcfg.Config, interp tier, plan not applicable to this state,
// or a non-cancellation error — the interpreter will reproduce any
// genuine error with exact semantics).
func planActiveAnswer(ctx context.Context, sp *obs.Span, dom domain.Domain, st *db.State,
	f *logic.Formula, rng []domain.Value) (*Answer, error, bool) {

	if cfg, _ := runcfg.From(ctx); cfg.NoPlan {
		return nil, nil, false
	}
	p := plan.For(ctx, st.Scheme(), dom.Name(), "", f)
	res, err := p.EvalActive(ctx, dom, st, rng)
	if err != nil && !canceledErr(err) {
		// ErrFallback (interp tier, or a plan not applicable to this
		// state) and real errors alike: let the interpreter decide.
		return nil, nil, false
	}
	sp.ArgStr("plan_tier", string(p.Tier()))
	ans := &Answer{Vars: res.Vars, Rows: res.Rows, Complete: res.Complete}
	if ans.Rows == nil {
		// Boolean query: marker-row construction, partial on cancellation.
		ans.Rows = db.NewRelation(1)
		if res.Truth {
			if addErr := ans.Rows.Add(db.Tuple{markerTrue{}}); addErr != nil {
				return nil, nil, false
			}
		}
	}
	mEvalRows.Add(int64(ans.Rows.Len()))
	sp.Arg("rows", int64(ans.Rows.Len()))
	return ans, err, true
}

// planAnswer returns an algebra-tier plan and its materialized answer, a
// relation over the plan's sorted variables, when the planner has one for
// the §1.1 loop; a nil relation means the decider answers. The answer
// table is the natural-semantics answer, which for the compiled
// safe-range fragment is exactly the §1.1 answer.
func planAnswer(ctx context.Context, sp *obs.Span, dom domain.Domain, st *db.State,
	f *logic.Formula) (*plan.Plan, *db.Relation) {

	if cfg, _ := runcfg.From(ctx); cfg.NoPlan {
		return nil, nil
	}
	// A sentence's verdict comes from the domain decider; and a variable
	// occurring only in empty-relation atoms would vanish from the
	// translated formula, changing the answer shape — both go the generic
	// way.
	if len(f.FreeVars()) == 0 || mentionsEmptyRelation(st, f) {
		return nil, nil
	}
	p := plan.For(ctx, st.Scheme(), dom.Name(), "", f)
	tab, err := p.Answer(ctx, dom, st)
	// A cancellation while the table is copied leaves it partial, but the
	// loop's first question polls the context and stops before using it.
	if err != nil && !canceledErr(err) {
		return nil, nil
	}
	sp.ArgStr("plan_tier", string(p.Tier()))
	return p, tab
}

// tableSource answers the §1.1 loop's questions from a plan's
// materialized answer: by count and by membership, deciding nothing.
type tableSource struct{ rows *db.Relation }

func (s tableSource) more(ctx context.Context, _ *obs.Span, n int) (bool, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	return n < s.rows.Len(), nil
}

func (s tableSource) member(_ context.Context, tuple db.Tuple) (bool, error) {
	return s.rows.Has(tuple), nil
}

func (tableSource) found(db.Tuple) {}

func (tableSource) name() string { return "table" }

// mentionsEmptyRelation reports whether any database atom of the formula
// scans an empty relation in this state.
func mentionsEmptyRelation(st *db.State, f *logic.Formula) bool {
	empty := false
	scheme := st.Scheme()
	f.Walk(func(g *logic.Formula) {
		if empty || g.Kind != logic.FAtom {
			return
		}
		if _, ok := scheme.Relations[g.Pred]; !ok {
			return
		}
		rel, err := st.Relation(g.Pred)
		if err != nil || rel.Len() == 0 {
			empty = true
		}
	})
	return empty
}
