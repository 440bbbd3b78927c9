package qstats

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// HistJSON is a latency histogram rendered for a snapshot: exact count,
// sum, and max plus the power-of-two buckets keyed by their inclusive
// upper bound in microseconds (the obs bucket scheme).
type HistJSON struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// NodeView is one formula node's merged EXPLAIN aggregates. Selectivity
// and RangeMean are derived; the raw sums ride along so snapshots merge
// losslessly on import.
type NodeView struct {
	Path        string  `json:"path"`
	Op          string  `json:"op"`
	Evals       int64   `json:"evals"`
	True        int64   `json:"true"`
	Selectivity float64 `json:"selectivity"`
	RangeMin    int64   `json:"range_min,omitempty"`
	RangeMax    int64   `json:"range_max,omitempty"`
	RangeMean   float64 `json:"range_mean,omitempty"`
	RangeSum    int64   `json:"range_sum,omitempty"`
	RangeCount  int64   `json:"range_count,omitempty"`
}

// EntryView is one query's aggregates rendered for a snapshot.
type EntryView struct {
	Key           string           `json:"key"`
	Domain        string           `json:"domain,omitempty"`
	Mode          string           `json:"mode,omitempty"`
	Query         string           `json:"query,omitempty"`
	Evals         int64            `json:"evals"`
	Rows          int64            `json:"rows"`
	Latency       HistJSON         `json:"latency_us"`
	MeanLatencyUS float64          `json:"mean_latency_us"`
	Stopped       map[string]int64 `json:"stopped,omitempty"`
	CacheHits     int64            `json:"cache_hits"`
	CacheMisses   int64            `json:"cache_misses"`
	// Plan is the tier of the compiled plan that last served the query
	// (empty while none has); PlanHits/PlanMisses count plan-cache traffic
	// for the key.
	Plan       string `json:"plan,omitempty"`
	PlanHits   int64  `json:"plan_hits,omitempty"`
	PlanMisses int64  `json:"plan_misses,omitempty"`
	// AllocBytes and AllocObjects sum the heap-allocation deltas of the
	// AllocSamples evaluations that ran with the alloc meter (serialized
	// runs); MeanAllocBytes = AllocBytes / AllocSamples.
	AllocBytes     int64   `json:"alloc_bytes,omitempty"`
	AllocObjects   int64   `json:"alloc_objects,omitempty"`
	AllocSamples   int64   `json:"alloc_samples,omitempty"`
	MeanAllocBytes float64 `json:"mean_alloc_bytes,omitempty"`
	// Selectivity is the root node's true/evals ratio when profile data
	// exists, else rows/evals clamped to [0,1] as a coarse fallback.
	Selectivity float64    `json:"selectivity"`
	FirstSeen   int64      `json:"first_seen"`
	LastSeen    int64      `json:"last_seen"`
	Nodes       []NodeView `json:"nodes,omitempty"`
}

// Snapshot is a point-in-time view of the registry, entries sorted by key
// so the same registry state always marshals to the same JSON bytes.
type Snapshot struct {
	Evictions int64       `json:"evictions"`
	Entries   []EntryView `json:"queries"`
}

func (e *entry) view() EntryView {
	v := EntryView{
		Key: e.key, Domain: e.domain, Mode: e.mode, Query: e.query,
		Evals: e.evals, Rows: e.rows,
		CacheHits: e.hits, CacheMisses: e.misses,
		Plan: e.plan, PlanHits: e.planHits, PlanMisses: e.planMisses,
		FirstSeen: e.firstSeen, LastSeen: e.lastSeen,
		Latency: HistJSON{Count: e.latCount, Sum: e.latSum, Max: e.latMax},
	}
	if e.latCount > 0 {
		v.MeanLatencyUS = float64(e.latSum) / float64(e.latCount)
	}
	v.AllocBytes, v.AllocObjects, v.AllocSamples = e.allocBytes, e.allocObjs, e.allocSamples
	if e.allocSamples > 0 {
		v.MeanAllocBytes = float64(e.allocBytes) / float64(e.allocSamples)
	}
	for i, n := range e.latBuckets {
		if n == 0 {
			continue
		}
		if v.Latency.Buckets == nil {
			v.Latency.Buckets = map[string]int64{}
		}
		v.Latency.Buckets[obs.BucketLabel(i)] = n
	}
	for _, reason := range stopReasons {
		if n := e.stopped[stopIndex(reason)]; n > 0 {
			if v.Stopped == nil {
				v.Stopped = map[string]int64{}
			}
			v.Stopped[reason] = n
		}
	}
	paths := make([]string, 0, len(e.nodes))
	for p := range e.nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		n := e.nodes[p]
		nv := NodeView{
			Path: p, Op: n.op, Evals: n.evals, True: n.trueN,
			RangeMin: n.rangeMin, RangeMax: n.rangeMax,
			RangeSum: n.rangeSum, RangeCount: n.rangeCount,
		}
		if n.evals > 0 {
			nv.Selectivity = float64(n.trueN) / float64(n.evals)
		}
		if n.rangeCount > 0 {
			nv.RangeMean = float64(n.rangeSum) / float64(n.rangeCount)
		}
		v.Nodes = append(v.Nodes, nv)
	}
	// Root selectivity: the profile root is path "0" when profiled runs
	// have been folded in.
	if root, ok := e.nodes["0"]; ok && root.evals > 0 {
		v.Selectivity = float64(root.trueN) / float64(root.evals)
	} else if e.evals > 0 {
		s := float64(e.rows) / float64(e.evals)
		if s > 1 {
			s = 1
		}
		v.Selectivity = s
	}
	return v
}

// Take captures every entry, sorted by key.
func (r *Registry) Take() Snapshot {
	s := Snapshot{Evictions: r.evictions.Load()}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			s.Entries = append(s.Entries, e.view())
		}
		sh.mu.Unlock()
	}
	sort.Slice(s.Entries, func(i, j int) bool { return s.Entries[i].Key < s.Entries[j].Key })
	return s
}

// JSON marshals the snapshot with indentation; maps marshal with sorted
// keys and entries are key-sorted, so identical registry states produce
// identical bytes.
func (s Snapshot) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("qstats: marshal snapshot: %v", err))
	}
	return out
}

// JSON is Take().JSON().
func (r *Registry) JSON() []byte { return r.Take().JSON() }

// TopK orders — the /v1/stats/queries ?by= values.
const (
	ByLatency     = "latency"     // total latency (sum of eval wall time)
	ByCount       = "count"       // evaluation count
	BySelectivity = "selectivity" // lowest selectivity first: expensive filters
	ByAllocs      = "allocs"      // total sampled allocation bytes
)

// TopK returns up to k entries ordered by the given dimension: "latency"
// (total evaluation wall time, descending), "count" (evaluations,
// descending), or "selectivity" (ascending — the least-selective queries
// are where quantifier-range narrowing pays). Ties break on key so the
// order is deterministic. k ≤ 0 means all entries.
func (r *Registry) TopK(by string, k int) ([]EntryView, error) {
	snap := r.Take()
	var less func(a, b EntryView) bool
	switch by {
	case ByLatency, "":
		less = func(a, b EntryView) bool { return a.Latency.Sum > b.Latency.Sum }
	case ByCount:
		less = func(a, b EntryView) bool { return a.Evals > b.Evals }
	case BySelectivity:
		less = func(a, b EntryView) bool { return a.Selectivity < b.Selectivity }
	case ByAllocs:
		less = func(a, b EntryView) bool { return a.AllocBytes > b.AllocBytes }
	default:
		return nil, fmt.Errorf("qstats: unknown order %q (want %s, %s, %s, or %s)",
			by, ByLatency, ByCount, BySelectivity, ByAllocs)
	}
	sort.SliceStable(snap.Entries, func(i, j int) bool {
		a, b := snap.Entries[i], snap.Entries[j]
		if less(a, b) != less(b, a) {
			return less(a, b)
		}
		return a.Key < b.Key
	})
	if k > 0 && len(snap.Entries) > k {
		snap.Entries = snap.Entries[:k]
	}
	return snap.Entries, nil
}

// Import folds a snapshot into the registry: existing entries merge
// (counts add, maxima and range bounds merge), new entries are created.
// The usual weight-eviction applies, so importing a huge snapshot into a
// small registry keeps the bound. This is how `finq stats -import`
// preloads a saved stats file — the feed a plan-level optimizer reads.
func (r *Registry) Import(s Snapshot) {
	labelIndex := bucketLabelIndex()
	for _, v := range s.Entries {
		r.importEntry(v, labelIndex)
	}
}

// ImportJSON unmarshals and imports an exported snapshot.
func (r *Registry) ImportJSON(data []byte) error {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("qstats: parsing snapshot: %w", err)
	}
	r.Import(s)
	return nil
}

// bucketLabelIndex maps bucket labels back to indexes for merging.
func bucketLabelIndex() map[string]int {
	m := make(map[string]int, obs.NumBuckets)
	for i := 0; i < obs.NumBuckets; i++ {
		m[obs.BucketLabel(i)] = i
	}
	return m
}

func (r *Registry) importEntry(v EntryView, labelIndex map[string]int) {
	if v.Key == "" {
		return
	}
	sh := r.shardFor(v.Key)
	sh.mu.Lock()
	e, now := r.lookup(sh, v.Key, v.Domain, v.Mode, v.Query)
	oldW := e.weight
	e.lastSeen = now
	e.evals += v.Evals
	e.rows += v.Rows
	e.hits += v.CacheHits
	e.misses += v.CacheMisses
	if v.Plan != "" {
		e.plan = v.Plan
	}
	e.planHits += v.PlanHits
	e.planMisses += v.PlanMisses
	for reason, n := range v.Stopped {
		e.stopped[stopIndex(reason)] += n
	}
	e.allocBytes += v.AllocBytes
	e.allocObjs += v.AllocObjects
	e.allocSamples += v.AllocSamples
	e.latCount += v.Latency.Count
	e.latSum += v.Latency.Sum
	if v.Latency.Max > e.latMax {
		e.latMax = v.Latency.Max
	}
	for label, n := range v.Latency.Buckets {
		if i, ok := labelIndex[label]; ok {
			e.latBuckets[i] += n
		}
	}
	for _, nv := range v.Nodes {
		n := e.nodes[nv.Path]
		if n == nil {
			if e.nodes == nil {
				e.nodes = map[string]*nodeAgg{}
			}
			n = &nodeAgg{op: nv.Op}
			e.nodes[nv.Path] = n
		}
		n.evals += nv.Evals
		n.trueN += nv.True
		if nv.RangeCount > 0 {
			if n.rangeCount == 0 || nv.RangeMin < n.rangeMin {
				n.rangeMin = nv.RangeMin
			}
			if nv.RangeMax > n.rangeMax {
				n.rangeMax = nv.RangeMax
			}
			n.rangeSum += nv.RangeSum
			n.rangeCount += nv.RangeCount
		}
	}
	evicted, delta := sh.settle(e, oldW, r.maxWeight/numShards)
	sh.mu.Unlock()
	r.publish(evicted, delta)
}

// WriteTable renders entries as an aligned text table — the /debug/queries
// page, `finq stats -queries`, and the REPL's :qstats all use it.
func WriteTable(w io.Writer, entries []EntryView) {
	fmt.Fprintf(w, "%-7s %-9s %-6s %-7s %-9s %-9s %-8s %-5s %-6s %-9s %s\n",
		"EVALS", "MODE", "ROWS", "MEAN_US", "MAX_US", "TOTAL_US", "ALLOC_B", "SEL", "HIT%", "STOPPED", "QUERY")
	for _, e := range entries {
		hitPct := "-"
		if total := e.CacheHits + e.CacheMisses; total > 0 {
			hitPct = fmt.Sprintf("%.0f", float64(e.CacheHits)/float64(total)*100)
		}
		allocB := "-"
		if e.AllocSamples > 0 {
			allocB = fmt.Sprintf("%.0f", e.MeanAllocBytes)
		}
		stopped := "-"
		if len(e.Stopped) > 0 {
			var parts []string
			for _, reason := range stopReasons {
				if n := e.Stopped[reason]; n > 0 {
					parts = append(parts, fmt.Sprintf("%s:%d", reason, n))
				}
			}
			stopped = strings.Join(parts, ",")
		}
		q := e.Query
		if e.Domain != "" {
			q = e.Domain + ": " + q
		}
		fmt.Fprintf(w, "%-7d %-9s %-6d %-7.0f %-9d %-9d %-8s %-5.2f %-6s %-9s %s\n",
			e.Evals, e.Mode, e.Rows, e.MeanLatencyUS, e.Latency.Max, e.Latency.Sum,
			allocB, e.Selectivity, hitPct, stopped, q)
	}
}
