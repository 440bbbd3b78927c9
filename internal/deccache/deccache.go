// Package deccache memoizes domain decision procedures. The §1.1
// enumeration re-decides identical ground sentences on every row (each
// row's probe scan restarts from candidate 0), and the relative-safety
// deciders re-ask the same equivalence sub-sentences; a bounded cache in
// front of the decider turns those repeats into map lookups.
//
// The cache is keyed by logic.(*Formula).CanonicalKey, an injective
// serialization, so key equality is collision-safe; the stored sentence is
// nevertheless re-checked with Equal on every hit as defense in depth.
// Eviction is LRU with a fixed capacity. An evaluation whose context
// carries runcfg.Config.NoCache (the CLIs' -cache=off, through
// internal/cliutil) passes every wrapper straight through, so correctness
// never depends on the cache being on.
package deccache

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/runcfg"
)

// Cache behavior counters, aggregated across all caches in the process;
// exposed on /metrics and in obs snapshots like every other metric.
var (
	mHits      = obs.NewCounter("deccache.hits")
	mMisses    = obs.NewCounter("deccache.misses")
	mEvictions = obs.NewCounter("deccache.evictions")
)

// cacheDomains is the closed label set for per-domain counters: the
// registered domain names that construct caches, plus "other" for direct
// Wrap callers. Closed so metric names stay bounded regardless of input.
var cacheDomains = []string{"eq", "nless", "presburger", "zless", "nsucc", "wordlex", "traces", "other"}

// domainCounters holds the per-domain hit/miss/eviction counters, created
// eagerly over the closed set so the families appear on /metrics even
// before traffic.
type domainCounterSet struct {
	hits, misses, evictions *obs.Counter
}

var domainCounters = func() map[string]domainCounterSet {
	m := make(map[string]domainCounterSet, len(cacheDomains))
	for _, d := range cacheDomains {
		m[d] = domainCounterSet{
			hits:      obs.NewCounter("deccache." + d + ".hits"),
			misses:    obs.NewCounter("deccache." + d + ".misses"),
			evictions: obs.NewCounter("deccache." + d + ".evictions"),
		}
		obs.SetHelp("deccache."+d+".hits", "Decision-cache hits for the "+d+" domain's deciders.")
		obs.SetHelp("deccache."+d+".misses", "Decision-cache misses for the "+d+" domain's deciders.")
		obs.SetHelp("deccache."+d+".evictions", "Decision-cache evictions for the "+d+" domain's deciders.")
	}
	return m
}()

// countersFor maps a domain name onto the closed counter set.
func countersFor(name string) domainCounterSet {
	if c, ok := domainCounters[name]; ok {
		return c
	}
	return domainCounters["other"]
}

// Enabled reports the default posture: caches serve every evaluation
// whose runcfg.Config does not set NoCache, so it is always true.
// finqbench checks it before a run.
func Enabled() bool { return true }

// DefaultCapacity bounds a cache created by the domain constructors: large
// enough to hold every ground decision of a budget-sized enumeration,
// small enough that pinned formulas stay in the tens of megabytes even for
// pathological sentence sizes.
const DefaultCapacity = 4096

// Cache is a memoized domain.Decider with bounded LRU eviction. It is
// safe for concurrent use; the inner decider is invoked outside the lock.
type Cache struct {
	inner    domain.Decider
	capacity int
	counters domainCounterSet // per-domain labelled counters (closed set)

	mu    sync.Mutex
	order *list.List // front = most recently used
	byKey map[string]*list.Element

	hits, misses, evictions int64
}

type entry struct {
	key      string
	sentence *logic.Formula
	value    bool
}

// Wrap returns a caching decider in front of inner. A capacity ≤ 0 selects
// DefaultCapacity. Traffic counts under the "other" domain label; domain
// constructors should prefer WrapDomain.
func Wrap(inner domain.Decider, capacity int) *Cache {
	return WrapDomain("other", inner, capacity)
}

// WrapDomain is Wrap with the owning domain named, so the cache's traffic
// is attributed to that domain's labelled counters (deccache.<domain>.hits
// etc). Unknown names fold into "other" — the label set is closed.
func WrapDomain(domainName string, inner domain.Decider, capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		inner:    inner,
		capacity: capacity,
		counters: countersFor(domainName),
		order:    list.New(),
		byKey:    map[string]*list.Element{},
	}
}

// Decide implements domain.Decider: a hit returns the memoized verdict, a
// miss consults the inner decider and caches the result. Errors are never
// cached — a failing sentence is re-asked on every call, like an unwrapped
// decider. The hit path is a map lookup and ignores the context; the miss
// path hands the context to the inner decider, so a long elimination stops
// with the context's error, and as with errors caches nothing when the
// decision was cut short. Under a context whose runcfg.Config sets NoCache
// the call passes straight through (no key is built, no stats move); hits
// and misses count on the context's runcfg.Counts.
func (c *Cache) Decide(ctx context.Context, sentence *logic.Formula) (bool, error) {
	cfg, n := runcfg.From(ctx)
	if cfg.NoCache {
		return c.inner.Decide(ctx, sentence)
	}
	ctx, sp := obs.StartSpanCtx(ctx, "deccache.decide")
	defer sp.End()
	key := sentence.CanonicalKey()

	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*entry)
		if e.sentence.Equal(sentence) {
			c.order.MoveToFront(el)
			v := e.value
			c.hits++
			c.mu.Unlock()
			mHits.Inc()
			c.counters.hits.Inc()
			if n != nil {
				n.CacheHits.Add(1)
			}
			sp.Arg("hit", 1)
			return v, nil
		}
		// An injective key cannot collide; if it ever did, fall through to
		// the inner decider rather than return a wrong verdict.
		c.mu.Unlock()
		sp.Arg("hit", 0)
		return c.inner.Decide(ctx, sentence)
	}
	c.misses++
	c.mu.Unlock()
	mMisses.Inc()
	c.counters.misses.Inc()
	if n != nil {
		n.CacheMisses.Add(1)
	}
	sp.Arg("hit", 0)

	v, err := c.inner.Decide(ctx, sentence)
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	// A concurrent miss on the same sentence may have inserted first; the
	// verdicts are identical (deciders are pure), keep the existing entry.
	if _, ok := c.byKey[key]; !ok {
		c.byKey[key] = c.order.PushFront(&entry{key: key, sentence: sentence, value: v})
		if c.order.Len() > c.capacity {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.byKey, oldest.Value.(*entry).key)
			c.evictions++
			mEvictions.Inc()
			c.counters.evictions.Inc()
		}
	}
	c.mu.Unlock()
	return v, nil
}

// Stats returns the cache's own hit/miss/eviction counts and current size
// (the package-level obs counters aggregate across all caches).
func (c *Cache) Stats() (hits, misses, evictions int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.order.Len()
}
