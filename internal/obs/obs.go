// Package obs is the zero-dependency observability layer: atomic counters,
// gauges, and power-of-two histograms, lightweight hierarchical spans, a
// deterministic JSON snapshot, and an optional expvar + pprof debug server.
//
// Every algorithm the paper makes executable has wildly input-dependent
// cost — quantifier elimination can blow up doubly exponentially, the §1.1
// enumeration is budget-capped, and the Theorem 3.3 reduction runs Turing
// machines step by step — so the hot paths (query evaluation, the
// eliminators, the automata engine, the machine simulator, the safety
// deciders) report through this package.
//
// Metrics are created once at package init of the instrumented package and
// are goroutine-safe. One process-wide switch (SetEnabled) reduces every
// recording call to a single atomic load when observation is off, so
// instrumented code pays ~ns when disabled and a few atomic adds when
// enabled. It is the process's only observability switch: metrics are
// process-wide, and most recording calls have no context in reach. How one
// evaluation runs is set on its context instead (internal/runcfg).
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled is the package-level toggle. Observation is on by default; the
// recording fast path is a single atomic load when it is off.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled sets the toggle and returns the previous value, for scoped
// use in tests and benchmarks.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether observation is on.
func Enabled() bool { return enabled.Load() }

// registry holds every metric ever created, keyed by name. Creation is
// rare (package init) and locked; recording touches only the metric's own
// atomics.
var registry = struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanStat
	helps    map[string]string
}{
	counters: map[string]*Counter{},
	gauges:   map[string]*Gauge{},
	hists:    map[string]*Histogram{},
	spans:    map[string]*spanStat{},
	helps:    map[string]string{},
}

// SetHelp registers a one-line description for a metric name, emitted as
// the # HELP line of the Prometheus exposition. Metrics without registered
// help get their dotted name as the help text.
func SetHelp(name, help string) {
	registry.mu.Lock()
	registry.helps[name] = help
	registry.mu.Unlock()
}

// helpFor returns the registered help text for a metric, defaulting to the
// metric's own dotted name (so every family always has a HELP line).
func helpFor(name string) string {
	registry.mu.Lock()
	h, ok := registry.helps[name]
	registry.mu.Unlock()
	if !ok || h == "" {
		return name
	}
	return h
}

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns the counter registered under name, creating it if
// needed. Safe to call from multiple packages for the same name.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{}
	registry.counters[name] = c
	return c
}

// Add increments the counter by n (no-op when observation is off).
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value measurement.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns the gauge registered under name, creating it if needed.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	registry.gauges[name] = g
	return g
}

// Set records the current value.
func (g *Gauge) Set(n int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the bucket count: bucket i holds observations v with
// bits.Len64(v) == i, i.e. 2^(i-1) ≤ v < 2^i, with bucket 0 for v ≤ 0.
const histBuckets = 65

// NumBuckets is the histogram bucket count, exported so other aggregators
// (the qstats registry) can share the bucket scheme.
const NumBuckets = histBuckets

// BucketIndex returns the bucket an observation falls into: 0 for v ≤ 0,
// else bits.Len64(v) (so bucket i holds 2^(i-1) ≤ v < 2^i).
func BucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLabel is the inclusive upper bound of bucket i as a decimal
// string ("0" for the non-positive bucket) — the le label of the
// Prometheus exposition and the bucket key of JSON snapshots.
func BucketLabel(i int) string { return bucketLabel(i) }

// BucketUpper is the inclusive upper bound of the bucket v falls into:
// the smallest threshold the histogram can actually resolve at or above
// v. SLO latency thresholds round up through this, so "good" is exactly
// the observations CountUnder can count. v ≤ 0 maps to 0; values in the
// top bucket saturate at MaxInt64.
func BucketUpper(v int64) int64 {
	i := BucketIndex(v)
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxInt64
	}
	return int64(uint64(1)<<uint(i)) - 1
}

// CountUnder returns how many observations landed in buckets whose upper
// bound is ≤ BucketUpper(v) — i.e. observations known to be ≤ the
// bucket-rounded threshold. The count is a sum of per-bucket atomics, so
// it is consistent to within concurrent observations.
func (h *Histogram) CountUnder(v int64) int64 {
	top := BucketIndex(v)
	var n int64
	for i := 0; i <= top && i < histBuckets; i++ {
		n += h.buckets[i].Load()
	}
	return n
}

// Exemplar links a histogram bucket to a recent trace: the trace ID of
// the most recent exemplar-bearing observation that landed in the bucket,
// and its observed value. Emitted in OpenMetrics exemplar syntax from the
// Prometheus endpoint, so a scraper can jump from a latency bucket
// straight to /debug/slow?id=<trace_id>.
type Exemplar struct {
	TraceID string `json:"trace_id"`
	Value   int64  `json:"value"`
}

// Histogram aggregates a size or latency distribution into power-of-two
// buckets. It records count, sum, and max exactly; the buckets give the
// shape. All fields are atomics, so concurrent observations never lock.
type Histogram struct {
	count     atomic.Int64
	sum       atomic.Int64
	max       atomic.Int64
	buckets   [histBuckets]atomic.Int64
	exemplars [histBuckets]atomic.Pointer[Exemplar]
}

// NewHistogram returns the histogram registered under name, creating it if
// needed.
func NewHistogram(name string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if h, ok := registry.hists[name]; ok {
		return h
	}
	h := &Histogram{}
	registry.hists[name] = h
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
}

// observe is Observe without the toggle check, for callers that already
// checked (the span recorder).
func (h *Histogram) observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// ObserveExemplar records one value and stamps its bucket's exemplar with
// the given trace ID (last writer wins — the exemplar is "a recent
// request that landed here", not a reservoir). An empty traceID records
// plainly.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
	if traceID == "" {
		return
	}
	h.exemplars[BucketIndex(v)].Store(&Exemplar{TraceID: traceID, Value: v})
}

// ExemplarFor returns the bucket exemplar for bucket i, or nil.
func (h *Histogram) ExemplarFor(i int) *Exemplar {
	if i < 0 || i >= histBuckets {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistView is a histogram rendered for a snapshot. Buckets maps the
// bucket's inclusive upper bound (as a decimal string, "0" for the
// non-positive bucket) to its count; empty buckets are omitted.
type HistView struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Max     int64            `json:"max"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
	// Exemplars maps a bucket label to the most recent request that landed
	// in the bucket, when any observation carried a trace ID.
	Exemplars map[string]Exemplar `json:"exemplars,omitempty"`
}

// view renders the histogram.
func (h *Histogram) view() HistView {
	v := HistView{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if v.Count > 0 {
		v.Mean = float64(v.Sum) / float64(v.Count)
	}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if v.Buckets == nil {
			v.Buckets = map[string]int64{}
		}
		v.Buckets[bucketLabel(i)] = n
		if ex := h.exemplars[i].Load(); ex != nil {
			if v.Exemplars == nil {
				v.Exemplars = map[string]Exemplar{}
			}
			v.Exemplars[bucketLabel(i)] = *ex
		}
	}
	return v
}

// bucketLabel is the inclusive upper bound of bucket i as a string.
func bucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	// Upper bound 2^i − 1; render exactly for all 64 buckets via uint64.
	hi := uint64(1)<<uint(i) - 1
	if i == 64 {
		hi = ^uint64(0)
	}
	return u64str(hi)
}

func u64str(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Reset zeroes every registered metric and span statistic. For tests and
// the benchmark harness; metrics stay registered.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, g := range registry.gauges {
		g.v.Store(0)
	}
	for _, h := range registry.hists {
		h.count.Store(0)
		h.sum.Store(0)
		h.max.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
			h.exemplars[i].Store(nil)
		}
	}
	for _, s := range registry.spans {
		s.hist.count.Store(0)
		s.hist.sum.Store(0)
		s.hist.max.Store(0)
		for i := range s.hist.buckets {
			s.hist.buckets[i].Store(0)
		}
	}
}

// sortedKeys returns the sorted key set of a metric map.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
