// Package plan is the query planner: it compiles a formula once into an
// executable plan and caches the plan, so the hot evaluation paths stop
// re-walking the formula tree on every row.
//
// A plan lands in one of three tiers:
//
//   - TierAlgebra — the formula is safe-range in the shape
//     internal/algebra compiles (after the RANF rewriting); the plan is a
//     relational algebra expression evaluated with hash joins. For these
//     formulas the natural-semantics table the algebra computes is the
//     active-domain answer, and — via the translation lemma of §1.1 — also
//     the enumeration answer, so both evaluation modes can serve from it.
//   - TierClosure — the formula is outside the algebra fragment; it is
//     compiled to a tree of closures over a slot-indexed environment
//     (variables become integer slots, constants and relations are
//     resolved once per evaluation at bind time), replacing the generic
//     evaluator's per-node map lookups and kind switches. Semantics are
//     exactly active-domain evaluation.
//   - TierInterp — compilation failed (unknown node kinds, malformed
//     atoms); callers fall back to the generic evaluator.
//
// Plans are compiled against a scheme, not a state: relations are scanned
// at evaluation time, so one cached plan serves every state of its scheme.
// The cache is a bounded LRU keyed by the formula's CanonicalKey — the
// same injective key the decision cache uses — extended with a scheme
// signature and the domain name.
//
// The closure program is compiled on the plan's first active-domain
// evaluation (or Tier or Text call), not at lookup: the §1.1 enumeration
// can only use algebra-tier plans, so an enumeration never compiles a
// program it would discard, and one cache entry still serves both modes.
//
// Plan-level optimizations: selection pushdown and join-leaf ordering on
// the algebra tier; conjunct/disjunct ordering by a static cost estimate
// and existential quantifier-range narrowing on the closure tier.
package plan

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/db"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/runcfg"
)

// Cache and compile metrics, exposed on /metrics and in obs snapshots.
var (
	mCacheHits      = obs.NewCounter("plan.cache.hits")
	mCacheMisses    = obs.NewCounter("plan.cache.misses")
	mCacheEvictions = obs.NewCounter("plan.cache.evictions")
	mTierAlgebra    = obs.NewCounter("plan.compile.algebra")
	mTierClosure    = obs.NewCounter("plan.compile.closure")
	mTierInterp     = obs.NewCounter("plan.compile.interp")
	hCompileUS      = obs.NewHistogram("plan.compile.us")
)

func init() {
	obs.SetHelp("plan.cache.hits", "Plan-cache hits: evaluations served by an already-compiled plan.")
	obs.SetHelp("plan.cache.misses", "Plan-cache misses: evaluations that compiled a fresh plan.")
	obs.SetHelp("plan.cache.evictions", "Plans evicted from the bounded LRU plan cache.")
	obs.SetHelp("plan.compile.algebra", "Compilations that landed in the relational-algebra tier.")
	obs.SetHelp("plan.compile.closure", "Compilations that landed in the closure tier.")
	obs.SetHelp("plan.compile.interp", "Compilations that fell back to the generic interpreter.")
}

// Enabled reports the default posture: the planner serves every
// evaluation whose runcfg.Config does not set NoPlan, so it is always
// true. finqbench checks it before a run.
func Enabled() bool { return true }

// Tier names how a plan executes.
type Tier string

const (
	// TierAlgebra evaluates a compiled relational algebra expression.
	TierAlgebra Tier = "algebra"
	// TierClosure evaluates a closure-compiled active-domain program.
	TierClosure Tier = "closure"
	// TierInterp marks a plan that could not be compiled; callers use the
	// generic evaluator.
	TierInterp Tier = "interp"
)

// Plan is one compiled query. Plans are safe for concurrent evaluation:
// an algebra-tier plan is immutable after For, and any other plan changes
// once, under closureOnce, when its closure program is compiled.
type Plan struct {
	// tier is TierAlgebra from For on, and "" for any other plan until
	// closureOnce sets TierClosure or TierInterp.
	tier Tier
	// vars are the formula's free variables, sorted (the row order of
	// every evaluation result).
	vars []string
	// alg is the optimized algebra expression (TierAlgebra only).
	alg algebra.Expr
	// closureOnce guards resolve, which compiles the closure program from
	// scheme and f and then drops them.
	closureOnce sync.Once
	scheme      *db.Scheme
	f           *logic.Formula
	// prog is the closure program (TierClosure only).
	prog *prog
	// reason says why the plan fell back a tier, for EXPLAIN text.
	reason string
	// notes lists the optimizations applied, for EXPLAIN text.
	notes []string
}

// Tier returns the plan's execution tier, compiling the closure program
// first if the plan is outside the algebra tier and nothing has yet.
func (p *Plan) Tier() Tier {
	p.resolve(context.TODO())
	return p.tier
}

// Vars returns the free variables (sorted) the plan's rows are ordered by.
func (p *Plan) Vars() []string { return p.vars }

// Text renders the plan for EXPLAIN surfaces: one "plan:" header line
// with the tier, then the compiled form and the optimization notes.
func (p *Plan) Text() string {
	p.resolve(context.TODO())
	var b strings.Builder
	fmt.Fprintf(&b, "plan: tier=%s vars=[%s]", p.tier, strings.Join(p.vars, ","))
	if p.reason != "" {
		fmt.Fprintf(&b, " (%s)", p.reason)
	}
	b.WriteByte('\n')
	switch p.tier {
	case TierAlgebra:
		fmt.Fprintf(&b, "  algebra: %s\n", p.alg.String())
	case TierClosure:
		fmt.Fprintf(&b, "  closure: %s\n", p.prog.describe())
	case TierInterp:
		b.WriteString("  interp: generic evaluator\n")
	}
	if len(p.notes) > 0 {
		fmt.Fprintf(&b, "  opts: %s\n", strings.Join(p.notes, "; "))
	}
	return b.String()
}

// DefaultCacheCapacity bounds the plan cache: plans are small (an
// expression tree plus closures), and the working set of distinct query
// shapes is far below this in every workload the repo benchmarks.
const DefaultCacheCapacity = 512

// cache is the process-wide bounded LRU of compiled plans.
var cache = struct {
	mu    sync.Mutex
	order *list.List // front = most recently used
	byKey map[string]*list.Element
}{order: list.New(), byKey: map[string]*list.Element{}}

type cacheEntry struct {
	key  string
	plan *Plan
}

// resetCache empties the plan cache; tests use it to force recompiles.
func resetCache() {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	cache.order.Init()
	cache.byKey = map[string]*list.Element{}
}

// schemeSig is a deterministic signature of a scheme: relation names with
// arities plus constant names, sorted. Two states of equal schemes share
// plans; a scheme change (different arity, new relation) changes the key.
func schemeSig(scheme *db.Scheme) string {
	if scheme == nil {
		return ""
	}
	rels := make([]string, 0, len(scheme.Relations))
	for name, arity := range scheme.Relations {
		rels = append(rels, fmt.Sprintf("%s/%d", name, arity))
	}
	sort.Strings(rels)
	consts := append([]string(nil), scheme.Constants...)
	sort.Strings(consts)
	return strings.Join(rels, ",") + "|" + strings.Join(consts, ",")
}

// For returns the plan for a formula over a scheme and domain, trying the
// algebra tier and caching on first sight. The key is the formula's
// CanonicalKey when the caller has already computed one ("" recomputes) —
// the same key deccache and qstats use, so one identifier names the query
// across every subsystem. For never fails: formulas outside every
// compilable fragment get a TierInterp plan.
func For(ctx context.Context, scheme *db.Scheme, domainName, key string, f *logic.Formula) *Plan {
	if key == "" {
		key = f.CanonicalKey()
	}
	full := key + "\x1f" + schemeSig(scheme) + "\x1f" + domainName

	cache.mu.Lock()
	if el, ok := cache.byKey[full]; ok {
		cache.order.MoveToFront(el)
		p := el.Value.(*cacheEntry).plan
		cache.mu.Unlock()
		mCacheHits.Inc()
		if _, n := runcfg.From(ctx); n != nil {
			n.PlanHits.Add(1)
		}
		return p
	}
	cache.mu.Unlock()
	mCacheMisses.Inc()

	_, sp := obs.StartSpanCtx(ctx, "plan.compile")
	t0 := time.Now()
	p := compile(scheme, f)
	hCompileUS.Observe(time.Since(t0).Microseconds())
	if p.tier == TierAlgebra {
		mTierAlgebra.Inc()
		sp.ArgStr("tier", string(p.tier))
	}
	sp.End()
	if _, n := runcfg.From(ctx); n != nil {
		n.PlanMisses.Add(1)
	}

	cache.mu.Lock()
	if _, ok := cache.byKey[full]; !ok {
		cache.byKey[full] = cache.order.PushFront(&cacheEntry{key: full, plan: p})
		if cache.order.Len() > DefaultCacheCapacity {
			oldest := cache.order.Back()
			cache.order.Remove(oldest)
			delete(cache.byKey, oldest.Value.(*cacheEntry).key)
			mCacheEvictions.Inc()
		}
	}
	cache.mu.Unlock()
	return p
}

// compile lowers a formula into the algebra tier when it can; any other
// formula gets a plan whose closure program resolve compiles later.
func compile(scheme *db.Scheme, f *logic.Formula) *Plan {
	vars := f.FreeVars()
	p := &Plan{vars: vars}

	// Algebra tier: the RANF-widened safe-range compiler, provided the
	// compiled columns are exactly the free variables (the compiler can
	// drop a variable the formula never ranges — e.g. a vacuous
	// quantifier — in which case the natural and active answers can
	// differ in shape and the closure tier is the honest choice).
	if scheme != nil {
		if e, err := algebra.CompileRANF(scheme, f); err == nil && sameColSet(e.Columns(), vars) {
			opt, notes := optimizeAlgebra(e)
			p.tier = TierAlgebra
			p.alg = opt
			p.notes = notes
			return p
		} else if err != nil {
			p.reason = trimReason(err.Error())
		} else {
			p.reason = "compiled columns differ from free variables"
		}
	}
	p.scheme, p.f = scheme, f
	return p
}

// resolve compiles the closure program of a plan outside the algebra
// tier, once, and records it like For records a compile: the plan.compile
// span and histogram, and the tier counter. The closure tier compiles
// every formula the generic evaluator accepts; the rest fall to
// TierInterp.
func (p *Plan) resolve(ctx context.Context) {
	if p.alg != nil {
		return
	}
	p.closureOnce.Do(func() {
		_, sp := obs.StartSpanCtx(ctx, "plan.compile")
		t0 := time.Now()
		pr, err := compileClosure(p.scheme, p.f)
		hCompileUS.Observe(time.Since(t0).Microseconds())
		if err == nil {
			p.tier, p.prog, p.notes = TierClosure, pr, pr.notes
			mTierClosure.Inc()
		} else {
			p.tier, p.reason = TierInterp, trimReason(err.Error())
			mTierInterp.Inc()
		}
		p.scheme, p.f = nil, nil
		sp.ArgStr("tier", string(p.tier))
		sp.End()
	})
}

// trimReason bounds a fallback reason for display.
func trimReason(s string) string {
	const max = 160
	if len(s) > max {
		return s[:max] + "…"
	}
	return s
}

func sameColSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		if !set[c] {
			return false
		}
	}
	return true
}
