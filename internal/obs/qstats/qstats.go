// Package qstats is the per-query statistics registry: a sharded, bounded,
// race-safe map from a query's canonical key (logic.(*Formula).CanonicalKey,
// the same key the decision cache uses) to that query's runtime aggregates —
// evaluation count, latency histogram, rows produced, stop-reason counts,
// decision-cache hit attribution, and merged per-node EXPLAIN aggregates
// folded in whenever a profiled evaluation runs.
//
// The paper's workloads are per-formula: each query has its own cost shape
// (quantifier ranges, short-circuit selectivity, cache behavior), which
// endpoint-level RED metrics average away. This registry keeps the
// per-formula shape: a hot pathological formula shows up as one entry with
// a heavy latency histogram and low selectivity, and the per-node range
// aggregates show where quantifier-range narrowing pays. Snapshots are
// deterministic JSON, exportable and re-importable (finq stats
// -export/-import), so stats survive a process.
//
// Memory is bounded by weight: every entry is charged the bytes of its
// struct, its map slot, its strings and its node aggregates, and when a
// shard exceeds its share of the budget the least-recently-updated entries
// are evicted from the old end of the shard's recency list. Recording is
// one short critical section on the entry's shard, so concurrent
// evaluations contend only when their keys collide on a shard.
package qstats

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
)

// Registry-level metrics, on /metrics alongside every other obs family.
var (
	mRecords   = obs.NewCounter("qstats.records")
	mEvictions = obs.NewCounter("qstats.evictions")
	gEntries   = obs.NewGauge("qstats.entries")
	gWeight    = obs.NewGauge("qstats.weight")
)

func init() {
	obs.SetHelp("qstats.records", "Evaluations recorded into the per-query stats registry.")
	obs.SetHelp("qstats.evictions", "Per-query stats entries evicted by the weight bound.")
	obs.SetHelp("qstats.entries", "Distinct query keys currently held by the stats registry.")
	obs.SetHelp("qstats.weight", "Bytes of per-query aggregates currently held.")
}

// Enabled reports the default posture: finq.Eval records a row for every
// evaluation whose runcfg.Config does not set NoQStats, so it is always
// true. finqbench checks it before a run.
func Enabled() bool { return true }

// numShards spreads keys over independently locked shards. A power of two,
// small enough that a full-snapshot walk stays cheap.
const numShards = 16

// DefaultMaxWeight bounds the default registry's total aggregate weight in
// bytes: about two thousand distinct queries (an unprofiled entry weighs
// about 1 KB) before eviction starts.
const DefaultMaxWeight = 1 << 21

// stop reasons, indexed into each entry's fixed-size counter array. The
// set is closed so a malicious client cannot mint unbounded map keys.
var stopReasons = []string{"complete", "budget", "deadline", "canceled", "client-gone", "error"}

// numStopReasons sizes each entry's fixed stop-reason counter array.
const numStopReasons = 6

func stopIndex(reason string) int {
	switch reason {
	case "", "complete":
		return 0
	case "budget":
		return 1
	case "deadline":
		return 2
	case "canceled":
		return 3
	case "client-gone":
		return 4
	}
	return 5 // anything else is an error outcome
}

// NodeSample is one EXPLAIN profile node's contribution to a query's
// per-node aggregates, joined across runs on Path.
type NodeSample struct {
	// Path is the node's dotted child-index path from the root ("0" the
	// root, "0.1" its second child) — stable across runs of the same
	// formula because the profile tree mirrors the formula tree.
	Path string
	// Op is the node's operator label ("∃y", "∧", an atom's rendering).
	Op string
	// Evals and True are the node's evaluation and true-outcome counts for
	// one run.
	Evals, True int64
	// Range is the active-domain range the node iterated over (0 on
	// non-quantifier nodes).
	Range int64
}

// Sample is one finished evaluation's contribution to the registry.
type Sample struct {
	// Key is the formula's canonical key; samples with an empty key are
	// dropped.
	Key string
	// Domain, Mode, and Query describe the evaluation for humans; they are
	// recorded on first sight of the key.
	Domain, Mode, Query string
	// LatencyUS is the evaluation's wall time in microseconds.
	LatencyUS int64
	// Rows is the answer cardinality.
	Rows int64
	// Stopped is "" or "complete" for a complete answer, else "budget",
	// "deadline", "canceled", "client-gone", or "error".
	Stopped string
	// CacheHits and CacheMisses attribute decision-cache traffic to this
	// evaluation (runcfg.Counts).
	CacheHits, CacheMisses int64
	// Plan is the tier of the compiled plan that produced the answer
	// ("algebra" or "closure"); empty when no plan did — the planner was
	// off, or the interpreter or the §1.1 decider answered.
	Plan string
	// PlanHits and PlanMisses attribute plan-cache traffic to this
	// evaluation (runcfg.Counts).
	PlanHits, PlanMisses int64
	// AllocBytes and AllocObjects are the evaluation's heap allocation
	// deltas (prof.BeginAlloc/End), meaningful only when AllocSampled is
	// set — the alloc meter is single-flight, so concurrent evaluations go
	// unsampled rather than report overlapping numbers.
	AllocBytes, AllocObjects int64
	AllocSampled             bool
	// Nodes carries the flattened EXPLAIN profile of a profiled run; nil
	// for unprofiled evaluations.
	Nodes []NodeSample
}

// nodeAgg merges NodeSamples across runs.
type nodeAgg struct {
	op           string
	evals, trueN int64
	rangeMin     int64
	rangeMax     int64
	rangeSum     int64
	rangeCount   int64
}

// entry is one query's aggregates. All fields are guarded by the owning
// shard's mutex.
type entry struct {
	key, domain, mode, query string
	firstSeen, lastSeen      int64 // registry clock ticks, not wall time

	evals, rows  int64
	stopped      [numStopReasons]int64
	hits, misses int64

	plan                 string
	planHits, planMisses int64

	allocBytes, allocObjs, allocSamples int64

	latCount, latSum, latMax int64
	latBuckets               [obs.NumBuckets]int64

	nodes  map[string]*nodeAgg
	weight int64

	// newer and older link the shard's recency list.
	newer, older *entry
}

// Weights in bytes: a struct plus the map slot (key string header and
// pointer) that holds it. Strings are charged by length on top.
const (
	entryBytes   = int64(unsafe.Sizeof(entry{}) + unsafe.Sizeof("") + unsafe.Sizeof(&entry{}))
	nodeAggBytes = int64(unsafe.Sizeof(nodeAgg{}) + unsafe.Sizeof("") + unsafe.Sizeof(&nodeAgg{}))
)

// computeWeight is the entry's memory footprint in bytes, charged against
// the registry budget.
func (e *entry) computeWeight() int64 {
	w := entryBytes + int64(len(e.key)+len(e.domain)+len(e.mode)+len(e.query))
	for path, n := range e.nodes {
		w += nodeAggBytes + int64(len(path)+len(n.op))
	}
	return w
}

// fold merges one sample into the entry.
func (e *entry) fold(s Sample, now int64) {
	e.lastSeen = now
	e.evals++
	e.rows += s.Rows
	e.stopped[stopIndex(s.Stopped)]++
	e.hits += s.CacheHits
	e.misses += s.CacheMisses
	if s.Plan != "" {
		e.plan = s.Plan
	}
	e.planHits += s.PlanHits
	e.planMisses += s.PlanMisses

	if s.AllocSampled {
		e.allocSamples++
		e.allocBytes += s.AllocBytes
		e.allocObjs += s.AllocObjects
	}

	e.latCount++
	e.latSum += s.LatencyUS
	if s.LatencyUS > e.latMax {
		e.latMax = s.LatencyUS
	}
	e.latBuckets[obs.BucketIndex(s.LatencyUS)]++

	for _, ns := range s.Nodes {
		n := e.nodes[ns.Path]
		if n == nil {
			if e.nodes == nil {
				e.nodes = map[string]*nodeAgg{}
			}
			n = &nodeAgg{op: ns.Op}
			e.nodes[ns.Path] = n
		}
		n.evals += ns.Evals
		n.trueN += ns.True
		if ns.Range > 0 {
			if n.rangeCount == 0 || ns.Range < n.rangeMin {
				n.rangeMin = ns.Range
			}
			if ns.Range > n.rangeMax {
				n.rangeMax = ns.Range
			}
			n.rangeSum += ns.Range
			n.rangeCount++
		}
	}
}

// shard holds its entries in a map and, through the entries' links, in a
// list from newest to oldest update: every write moves its entry to the
// newest end, so eviction pops the oldest end in O(1).
type shard struct {
	mu             sync.Mutex
	entries        map[string]*entry
	weight         int64
	newest, oldest *entry
}

// touch moves e, which may be new to the list, to its newest end.
func (sh *shard) touch(e *entry) {
	if sh.newest == e {
		return
	}
	sh.unlink(e)
	e.older = sh.newest
	if sh.newest != nil {
		sh.newest.newer = e
	}
	sh.newest = e
	if sh.oldest == nil {
		sh.oldest = e
	}
}

// unlink removes e from the list, if it is on it.
func (sh *shard) unlink(e *entry) {
	if e.newer != nil {
		e.newer.older = e.older
	} else if sh.newest == e {
		sh.newest = e.older
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else if sh.oldest == e {
		sh.oldest = e.newer
	}
	e.newer, e.older = nil, nil
}

// Registry is a bounded, sharded per-query stats store. The zero value is
// not usable; create with New or use Default.
type Registry struct {
	maxWeight int64
	clock     atomic.Int64
	entriesN  atomic.Int64
	weightN   atomic.Int64
	evictions atomic.Int64
	shards    [numShards]shard
}

// New builds a registry bounded by maxWeight bytes of aggregates (≤ 0
// selects DefaultMaxWeight).
func New(maxWeight int64) *Registry {
	if maxWeight <= 0 {
		maxWeight = DefaultMaxWeight
	}
	r := &Registry{maxWeight: maxWeight}
	for i := range r.shards {
		r.shards[i].entries = map[string]*entry{}
	}
	return r
}

// defaultRegistry is the process-wide registry every evaluation records
// into (finq.Eval) and every surface reads from (/v1/stats/queries,
// /debug/queries, finq stats -queries, REPL :qstats).
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = New(0) })
	return defaultReg
}

// shardFor hashes the key with 32-bit FNV-1a.
func (r *Registry) shardFor(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &r.shards[h%numShards]
}

// Record folds one evaluation's sample into the registry, creating the
// entry on first sight of the key and evicting the least-recently-updated
// entries of the shard if the fold pushed it over its weight share.
func (r *Registry) Record(s Sample) {
	if s.Key == "" {
		return
	}
	sh := r.shardFor(s.Key)
	sh.mu.Lock()
	e, now := r.lookup(sh, s.Key, s.Domain, s.Mode, s.Query)
	oldW := e.weight
	e.fold(s, now)
	evicted, delta := sh.settle(e, oldW, r.maxWeight/numShards)
	sh.mu.Unlock()
	r.publish(evicted, delta)
	mRecords.Inc()
}

// lookup returns the shard's entry for key, creating it on first sight,
// and the clock tick of this update. The clock is read under the shard
// lock, so a shard's updates tick in the order they take the lock and its
// recency list stays in lastSeen order. Caller holds sh.mu.
func (r *Registry) lookup(sh *shard, key, domain, mode, query string) (*entry, int64) {
	now := r.clock.Add(1)
	e := sh.entries[key]
	if e == nil {
		e = &entry{key: key, domain: domain, mode: mode, query: query, firstSeen: now}
		sh.entries[key] = e
		r.entriesN.Add(1)
	}
	return e, now
}

// settle finishes an update of e, which weighed oldW before it: it moves
// e to the newest end of the shard's list, recharges its weight and evicts
// what the shard's budget no longer holds. It returns the number of
// entries evicted and the change in the shard's weight. Caller holds sh.mu.
func (sh *shard) settle(e *entry, oldW, budget int64) (evicted, delta int64) {
	sh.touch(e)
	e.weight = e.computeWeight()
	sh.weight += e.weight - oldW
	evicted, freed := sh.evictOver(budget, e)
	return evicted, e.weight - oldW - freed
}

// publish applies one update's eviction count and weight change to the
// registry's totals and gauges.
func (r *Registry) publish(evicted, delta int64) {
	if evicted > 0 {
		r.entriesN.Add(-evicted)
		r.evictions.Add(evicted)
		mEvictions.Add(evicted)
	}
	gEntries.Set(r.entriesN.Load())
	gWeight.Set(r.weightN.Add(delta))
}

// evictOver drops least-recently-updated entries from the old end of the
// list until the shard fits its budget, never evicting keep, the entry
// just updated (which is at the newest end). It returns the number of
// entries evicted and their total weight. Caller holds sh.mu.
func (sh *shard) evictOver(budget int64, keep *entry) (evicted, freed int64) {
	for sh.weight > budget && sh.oldest != nil && sh.oldest != keep {
		victim := sh.oldest
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.weight -= victim.weight
		freed += victim.weight
		evicted++
	}
	return evicted, freed
}

// Len returns the number of distinct query keys currently held.
func (r *Registry) Len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Evictions returns how many entries the weight bound has evicted.
func (r *Registry) Evictions() int64 { return r.evictions.Load() }

// Reset drops every entry; for tests and the benchmark harness.
func (r *Registry) Reset() {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		r.entriesN.Add(-int64(len(sh.entries)))
		r.weightN.Add(-sh.weight)
		sh.entries = map[string]*entry{}
		sh.weight = 0
		sh.newest, sh.oldest = nil, nil
		sh.mu.Unlock()
	}
}
