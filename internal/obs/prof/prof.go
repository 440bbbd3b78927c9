// Package prof is the profile-guided observability layer: pprof label
// attribution, per-evaluation allocation accounting, an SLO burn-rate
// engine over the server's RED metrics, and a trigger-based CPU+heap
// profile capture store.
//
// The other obs packages answer "how long did it take" (histograms,
// spans, traces); this one answers "where did the CPU and the allocations
// go, per query class". Every CPU-profile sample taken while a request is
// in flight carries pprof labels (endpoint, trace_id from the server
// middleware; query_key, domain, mode from finq.Eval), so one `go tool
// pprof` invocation can slice the process profile by endpoint or by a
// single formula's canonical key. When an SLO burn-rate threshold trips,
// the capture store records a bounded CPU+heap profile pair while the
// incident is still live, cross-linked to the tail-sampler capture and
// trace ID that tripped it — the evidence arrives with the page.
//
// Everything here follows the repository's observability conventions:
// zero dependencies outside the standard library, and bounded memory (the
// capture ring, the SLO sample ring). finq.Eval skips its labels and its
// allocation meter under a runcfg.Config that sets NoProf.
package prof

import (
	"context"
	"hash/fnv"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
)

// Enabled reports the default posture: finq.Eval labels and meters every
// evaluation whose runcfg.Config does not set NoProf, so it is always
// true. finqbench checks it before a run. With no CPU profile running,
// setting goroutine labels is a map copy per evaluation, and the alloc
// meter is two runtime/metrics reads — the bench table's prof bar (`make
// bench`) holds the sum under 3%.
func Enabled() bool { return true }

// maxLabelLen bounds a single pprof label value. Canonical keys grow with
// the formula; profiles keep a prefix long enough to identify the query
// without letting a pathological formula bloat every sample.
const maxLabelLen = 192

// QueryKeyLabel is the pprof label value for a formula's canonical key:
// the key itself when it fits, otherwise a bounded prefix suffixed with
// "#" and an FNV-64a hash of the full key, so two long keys sharing a
// prefix still map to distinct labels. Use it both when labeling
// (finq.Eval) and when matching labels in a captured profile, so the two
// sides agree on long keys.
func QueryKeyLabel(key string) string {
	if len(key) <= maxLabelLen {
		return key
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	suffix := "#" + strconv.FormatUint(h.Sum64(), 16)
	return key[:maxLabelLen-len(suffix)] + suffix
}

// Do runs fn with the given pprof labels (alternating key, value) added
// to the calling goroutine — and to any goroutine it spawns, which
// inherits the request's labels. Without a key and value, fn runs
// directly. An odd trailing key is dropped.
func Do(ctx context.Context, fn func(context.Context), kv ...string) {
	if len(kv) < 2 {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(kv[:len(kv)&^1]...), fn)
}

// Allocation accounting. Go does not expose per-goroutine allocation
// counters, so the meter reads the process-wide cumulative allocation
// metrics before and after an evaluation and attributes the delta — a
// number that is exact when evaluations are serialized and an upper bound
// when other work allocates concurrently. A single atomic token keeps two
// evaluations from metering at once: the second one simply goes
// unsampled (AllocSampled stays false), so concurrent traffic degrades to
// sampling the serialized fraction rather than producing garbage numbers.
//
// The meter additionally stride-samples: only every Nth BeginAlloc
// (default 8) actually reads the runtime metrics, because two
// metrics.Read calls per evaluation are the dominant cost of the whole
// attribution layer and per-query mean allocation converges just as well
// from a deterministic sample. The qstats aggregates divide by the
// sampled count (AllocSamples), so the stride changes variance, not the
// estimate.

// allocMetrics are the cumulative runtime/metrics samples the meter reads.
var allocMetricNames = [2]string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

// allocToken serializes meters: held from BeginAlloc to End.
var allocToken atomic.Bool

// allocStride is the sampling stride: BeginAlloc meters one call in
// every allocStride. Mutable only via setAllocSampling.
var allocStride atomic.Int64

// allocTick counts BeginAlloc calls for the stride.
var allocTick atomic.Int64

const defaultAllocStride = 8

func init() { allocStride.Store(defaultAllocStride) }

// setAllocSampling sets the allocation-meter stride (1 meters every
// eligible call) and returns the previous value; n < 1 resets the
// default. Tests use it to meter every call.
func setAllocSampling(n int) int {
	if n < 1 {
		n = defaultAllocStride
	}
	return int(allocStride.Swap(int64(n)))
}

// AllocMark is an in-progress allocation measurement. The zero value is
// inert: End returns sampled == false.
type AllocMark struct {
	active bool
	bytes  uint64
	objs   uint64
}

func readAllocs() (bytes, objs uint64) {
	var s [2]metrics.Sample
	s[0].Name = allocMetricNames[0]
	s[1].Name = allocMetricNames[1]
	metrics.Read(s[:])
	if s[0].Value.Kind() == metrics.KindUint64 {
		bytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		objs = s[1].Value.Uint64()
	}
	return bytes, objs
}

// BeginAlloc starts an allocation measurement if this call lands on the
// sampling stride and no other measurement is in flight; otherwise it
// returns an inert mark. The off-stride fast path is one atomic load and
// one atomic add.
func BeginAlloc() AllocMark {
	if stride := allocStride.Load(); stride > 1 && allocTick.Add(1)%stride != 0 {
		return AllocMark{}
	}
	if !allocToken.CompareAndSwap(false, true) {
		return AllocMark{}
	}
	b, o := readAllocs()
	return AllocMark{active: true, bytes: b, objs: o}
}

// End finishes the measurement, releasing the token. It returns the
// allocated bytes and objects since BeginAlloc and whether this run was
// actually metered (false for inert marks).
func (m AllocMark) End() (bytes, objects int64, sampled bool) {
	if !m.active {
		return 0, 0, false
	}
	b, o := readAllocs()
	allocToken.Store(false)
	// The counters are cumulative and monotone; guard the subtraction
	// anyway so a runtime quirk can never yield negative attribution.
	if b >= m.bytes {
		bytes = int64(b - m.bytes)
	}
	if o >= m.objs {
		objects = int64(o - m.objs)
	}
	return bytes, objects, true
}
