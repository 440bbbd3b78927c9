package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/trace"
	"repro/internal/obs/tracectx"
)

// spanStat aggregates all finished spans sharing one aggregation key: a
// duration histogram in microseconds plus a count of currently-open spans
// (tracked on the unlabeled path).
type spanStat struct {
	hist Histogram
	open atomic.Int64
}

// Span is one timed region of a computation. Spans nest by path: a child
// span's path is "parent/child", and the per-path statistics aggregate
// every execution of that region. StartSpan returns nil when observation
// is off and every method tolerates a nil receiver, so call sites never
// branch on the toggle.
//
// When the flight recorder is armed (internal/obs/trace), every span also
// emits a begin/end event pair carrying any Arg key=values. If the context
// additionally carries a distributed trace position (internal/obs/tracectx),
// StartSpanCtx mints a W3C child span ID for the region, so the recorded
// events form a real tree — TraceID/SpanID/ParentID — instead of a flat
// stream, and the same call sites feed the aggregate histograms, the
// per-execution timeline, and the cross-process trace.
type Span struct {
	path   string
	labels string
	start  time.Time
	// tid is the trace goroutine id captured at start when the recorder
	// was armed; 0 means no trace events for this span.
	tid int64
	// rec is the recorder the begin event went to (and the end event must
	// go to); nil when tid is 0.
	rec   *trace.Recorder
	ident trace.Ident
	args  []trace.Arg
}

// spanCache gives spanStatFor a lock-free hit path; the registry map
// behind it is the source of truth for snapshots.
var spanCache sync.Map // key -> *spanStat

func spanStatFor(key string) *spanStat {
	if s, ok := spanCache.Load(key); ok {
		return s.(*spanStat)
	}
	registry.mu.Lock()
	s, ok := registry.spans[key]
	if !ok {
		s = &spanStat{}
		registry.spans[key] = s
	}
	registry.mu.Unlock()
	spanCache.Store(key, s)
	return s
}

// StartSpan opens a span. Labels are "key=value" strings folded into the
// duration-aggregation key. Returns nil when observation is off.
func StartSpan(path string, labels ...string) *Span {
	return startSpan(trace.Default(), trace.Ident{}, path, labels)
}

// StartSpanCtx is StartSpan for request-scoped code, and the point where a
// span acquires identity. Events go to the recorder carried by ctx
// (trace.WithRecorder; the process default otherwise). When that recorder
// is armed and ctx carries a trace position (tracectx.With), the span
// mints a fresh W3C child span ID for this region: the events carry
// TraceID/SpanID/ParentID, and the returned context carries the child
// position so spans opened beneath it (and outbound requests made with
// it) become children. The trace ID is the request's only identity, so
// it alone finds a request's events.
//
// The returned context is ctx itself whenever there is nothing to thread
// through. Without a trace position (or with tracing disarmed) the span
// behaves exactly like StartSpan.
func StartSpanCtx(ctx context.Context, path string, labels ...string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	rec := trace.FromContext(ctx)
	var ident trace.Ident
	if rec.Armed() {
		if tc, ok := tracectx.From(ctx); ok {
			child := tc.Child()
			ident = trace.Ident{
				Trace:  child.TraceID.String(),
				Span:   child.SpanID.String(),
				Parent: tc.SpanID.String(),
			}
			ctx = tracectx.With(ctx, child)
		}
	}
	return ctx, startSpan(rec, ident, path, labels)
}

// startSpan is the shared implementation.
func startSpan(rec *trace.Recorder, ident trace.Ident, path string, labels []string) *Span {
	if !enabled.Load() {
		return nil
	}
	sp := &Span{path: path, start: time.Now()}
	for _, l := range labels {
		sp.labels += "{" + l + "}"
	}
	if rec.Armed() {
		sp.tid = rec.Begin(path, "span", ident)
		sp.rec = rec
		sp.ident = ident
	}
	spanStatFor(path).open.Add(1)
	return sp
}

// Child opens a sub-span whose path extends the receiver's. When the
// receiver has a trace identity, the child gets a freshly minted span ID
// with the receiver as parent, keeping the recorded tree honest for
// fan-out that doesn't thread a context (per-row spans). On a nil
// receiver (observation off) it returns nil.
func (s *Span) Child(name string, labels ...string) *Span {
	if s == nil {
		return nil
	}
	rec := s.rec
	if rec == nil {
		rec = trace.Default()
	}
	var ident trace.Ident
	if s.ident.Span != "" {
		ident = trace.Ident{
			Trace:  s.ident.Trace,
			Span:   tracectx.NewSpanID().String(),
			Parent: s.ident.Span,
		}
	}
	return startSpan(rec, ident, s.path+"/"+name, labels)
}

// Traced reports whether the span is feeding the flight recorder; use it
// to guard Arg values that are themselves costly to compute.
func (s *Span) Traced() bool { return s != nil && s.tid != 0 }

// TraceID returns the span's distributed trace ID in lowercase hex (""
// when the span has no identity). Nil-safe.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.ident.Trace
}

// SpanID returns the span's distributed span ID in lowercase hex (""
// when the span has no identity). Nil-safe.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.ident.Span
}

// Arg attaches an integer key=value to the span's trace end event. It is
// recorded only while the flight recorder is armed (and is a no-op — no
// allocation — otherwise); aggregation keys are unaffected, unlike labels.
func (s *Span) Arg(key string, v int64) {
	if s == nil || s.tid == 0 {
		return
	}
	s.args = append(s.args, trace.I64(key, v))
}

// ArgStr attaches a string key=value to the span's trace end event.
func (s *Span) ArgStr(key, v string) {
	if s == nil || s.tid == 0 {
		return
	}
	s.args = append(s.args, trace.Str(key, v))
}

// End closes the span, recording its wall-clock duration (µs) under its
// path plus labels. No-op on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.tid != 0 {
		s.rec.End(s.path, "span", s.tid, s.start, s.ident, s.args...)
	}
	spanStatFor(s.path).open.Add(-1)
	spanStatFor(s.path + s.labels).hist.observe(time.Since(s.start).Microseconds())
}

// SpanView is a span aggregate rendered for a snapshot.
type SpanView struct {
	Count   int64 `json:"count"`
	TotalUS int64 `json:"total_us"`
	MaxUS   int64 `json:"max_us"`
	Open    int64 `json:"open,omitempty"`
}

func (s *spanStat) view() SpanView {
	return SpanView{
		Count:   s.hist.count.Load(),
		TotalUS: s.hist.sum.Load(),
		MaxUS:   s.hist.max.Load(),
		Open:    s.open.Load(),
	}
}
