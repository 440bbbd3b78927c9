// Package trace is the execution flight recorder behind internal/obs: a
// bounded, lock-cheap ring of structured events (span begin/end and
// instant marks, each with key=value args) that the instrumented hot
// paths feed while tracing is armed.
//
// The aggregate metrics of internal/obs answer "how much, overall"; this
// package answers "what happened, in order, in *this* run" — which
// subformula blew up during Cooper elimination, why one enumeration row
// cost 100× the previous one, where a Turing simulation spent its budget.
// Events carry microsecond timestamps relative to the arming instant, the
// emitting goroutine's id, and (when the computation has a distributed
// trace identity, see internal/obs/tracectx) the W3C trace/span/parent
// IDs, so the exporters (JSONL, the Chrome trace-event format loadable in
// Perfetto or chrome://tracing, and OTLP/JSON resource spans) reconstruct
// the full span tree — within one process and, via Stitch, across many.
//
// The recorder is an instantiable type so multiple server instances in one
// process (tests, cmd/finqload shards) each get their own ring; Default()
// is the process-wide instance the package-level functions delegate to,
// and WithRecorder/FromContext carry a specific recorder on a context.
//
// Tracing is disarmed by default. Every emit site first checks Armed() —
// a single atomic load — so the disarmed cost matches the obs toggle's
// budget: instrumented code pays ~1ns when nobody is recording. When armed,
// events go into a fixed-capacity ring guarded by one mutex held only for
// the slot copy; when the ring wraps, the oldest events are dropped (and
// counted), except that slow operations — spans whose duration meets
// SetSlowThreshold — are retained in a separate bounded slow-op log so the
// interesting outliers survive arbitrarily long runs.
package trace

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Phase classifies an event, using the Chrome trace-event phase letters.
type Phase byte

const (
	// PhaseBegin opens a span on its goroutine ('B').
	PhaseBegin Phase = 'B'
	// PhaseEnd closes the most recent open span on its goroutine ('E').
	PhaseEnd Phase = 'E'
	// PhaseInstant is a point-in-time mark ('i').
	PhaseInstant Phase = 'i'
)

// Arg is one key=value event argument. Values are either int64 or string;
// the two-field form avoids an interface allocation per argument.
type Arg struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// I64 builds an integer argument.
func I64(key string, v int64) Arg { return Arg{Key: key, Int: v} }

// Str builds a string argument.
func Str(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// Value returns the argument's value as an any (for JSON rendering).
func (a Arg) Value() any {
	if a.IsStr {
		return a.Str
	}
	return a.Int
}

// Ident is a span's position in a distributed trace: lowercase-hex W3C
// trace, span, and parent-span IDs (tracectx renders them). All fields
// empty means the event has no distributed identity — recorded before
// propagation existed or outside any request.
type Ident struct {
	Trace  string
	Span   string
	Parent string
}

// Event is one recorded occurrence. TS and Dur are microseconds; TS is
// measured from the Arm call. Seq is a per-recorder emission sequence
// number used to order and deduplicate events across the ring and the
// slow-op log. Trace/Span/Parent place span events in the distributed
// trace tree (empty when the computation had no trace identity).
type Event struct {
	Seq    int64
	Phase  Phase
	Name   string
	Cat    string
	TS     int64
	Dur    int64 // PhaseEnd only
	TID    int64
	Trace  string
	Span   string
	Parent string
	Args   []Arg
}

// DefaultCapacity is the ring size used when Arm is given a non-positive
// capacity: 64k events ≈ a few MB, enough for seconds of dense recording.
const DefaultCapacity = 1 << 16

// defaultSlowCap bounds the slow-op log.
const defaultSlowCap = 256

// Recorder is one flight recorder: an armed gate, a bounded event ring,
// and a slow-op log. The zero value is ready to use (disarmed, 1ms slow
// threshold applied on first Arm); NewRecorder spells that out.
type Recorder struct {
	armed atomic.Bool

	mu      sync.Mutex
	ring    []Event
	next    int // next write slot
	wrapped bool
	seq     int64
	dropped int64
	epoch   time.Time

	slow       []Event
	slowThresh int64 // µs; End events at least this slow are retained
}

// NewRecorder returns a fresh, disarmed recorder with the default 1ms
// slow-op threshold.
func NewRecorder() *Recorder {
	return &Recorder{slowThresh: 1000}
}

// defaultRec is the process-wide recorder behind the package-level API.
var defaultRec = NewRecorder()

// Default returns the process-wide recorder the package-level functions
// (Arm, Begin, Events, ...) operate on.
func Default() *Recorder { return defaultRec }

// recCtxKey carries a *Recorder on a context.
type recCtxKey struct{}

// WithRecorder returns a context that routes span events emitted under it
// to r instead of the process-wide default. A nil r returns ctx unchanged.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, recCtxKey{}, r)
}

// FromContext returns the recorder carried by ctx, or Default() when none
// (or ctx is nil) — callers always get a usable recorder.
func FromContext(ctx context.Context) *Recorder {
	if ctx != nil {
		if r, ok := ctx.Value(recCtxKey{}).(*Recorder); ok && r != nil {
			return r
		}
	}
	return defaultRec
}

// Arm starts recording into a fresh ring of the given capacity
// (DefaultCapacity when cap ≤ 0). Arming resets previously recorded events,
// the drop counter, and the timestamp epoch.
func (r *Recorder) Arm(capacity int) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r.mu.Lock()
	r.ring = make([]Event, capacity)
	r.next = 0
	r.wrapped = false
	r.seq = 0
	r.dropped = 0
	r.slow = nil
	r.epoch = time.Now()
	if r.slowThresh == 0 {
		r.slowThresh = 1000
	}
	r.mu.Unlock()
	r.armed.Store(true)
}

// Disarm stops recording. Events already in the ring remain readable via
// Events/Dump until the next Arm.
func (r *Recorder) Disarm() { r.armed.Store(false) }

// Armed reports whether the recorder is accepting events. Emit sites check
// this (one atomic load) before building arguments, so the disarmed cost of
// an instrumented site is a single branch.
func (r *Recorder) Armed() bool { return r.armed.Load() }

// SetSlowThreshold sets the duration at or above which ending spans are
// additionally retained in the slow-op log, surviving ring wrap-around.
// The default is 1ms.
func (r *Recorder) SetSlowThreshold(d time.Duration) {
	r.mu.Lock()
	r.slowThresh = d.Microseconds()
	r.mu.Unlock()
}

// Epoch returns the arming instant — the zero point of every event's TS.
// Its wall-clock reading anchors exported traces (OTLP unix nanos, stitch
// alignment across processes). Zero before the first Arm.
func (r *Recorder) Epoch() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// GoID returns the calling goroutine's id, parsed from the runtime stack
// header ("goroutine N [...]"). It costs several microseconds (2.5–5.8 µs
// a call across runs on a 2-core x86-64 VM, Go 1.24.0), paid only while
// tracing is armed; span emitters resolve it once per span.
func GoID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const skip = len("goroutine ")
	id := int64(0)
	for i := skip; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// emit appends one event to the ring (and, when slow enough, to the
// slow-op log). The timestamp is taken under the lock so it is consistent
// with the epoch even across a concurrent re-Arm.
func (r *Recorder) emit(ph Phase, name, cat string, tid, dur int64, id Ident, args []Arg) {
	r.mu.Lock()
	if !r.armed.Load() || len(r.ring) == 0 {
		r.mu.Unlock()
		return
	}
	r.seq++
	e := Event{
		Seq:    r.seq,
		Phase:  ph,
		Name:   name,
		Cat:    cat,
		TS:     time.Since(r.epoch).Microseconds(),
		Dur:    dur,
		TID:    tid,
		Trace:  id.Trace,
		Span:   id.Span,
		Parent: id.Parent,
		Args:   args,
	}
	if r.wrapped {
		r.dropped++
	}
	r.ring[r.next] = e
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
	if ph == PhaseEnd && dur >= r.slowThresh && len(r.slow) < defaultSlowCap {
		r.slow = append(r.slow, e)
	}
	r.mu.Unlock()
}

// Begin emits a span-begin event and returns the goroutine id the matching
// End must be given (0 when disarmed, which End treats as "skip"). The
// Ident places the span in the distributed trace tree; pass the zero Ident
// for identity-less spans.
func (r *Recorder) Begin(name, cat string, id Ident, args ...Arg) int64 {
	if !r.armed.Load() {
		return 0
	}
	tid := GoID()
	r.emit(PhaseBegin, name, cat, tid, 0, id, args)
	return tid
}

// End emits the span-end event matching a Begin that returned tid. The
// duration is computed from start and drives slow-op retention. No-op when
// tid is 0.
func (r *Recorder) End(name, cat string, tid int64, start time.Time, id Ident, args ...Arg) {
	if tid == 0 || !r.armed.Load() {
		return
	}
	r.emit(PhaseEnd, name, cat, tid, time.Since(start).Microseconds(), id, args)
}

// Instant emits a point-in-time mark.
func (r *Recorder) Instant(name, cat string, args ...Arg) {
	if !r.armed.Load() {
		return
	}
	r.emit(PhaseInstant, name, cat, GoID(), 0, Ident{}, args)
}

// Events returns the ring contents in emission order (oldest first).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ringLocked()
}

func (r *Recorder) ringLocked() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.ring[:r.next]...)
	}
	out := make([]Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// SlowEvents returns the slow-op log: End events whose duration met the
// slow threshold, retained even after the ring wrapped past them.
func (r *Recorder) SlowEvents() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.slow...)
}

// Dump merges the ring with the slow-op entries that have already been
// overwritten in the ring, ordered by sequence number — the complete
// retained record of the run.
func (r *Recorder) Dump() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	ring := r.ringLocked()
	oldest := int64(1)
	if len(ring) > 0 {
		oldest = ring[0].Seq
	} else {
		oldest = r.seq + 1
	}
	var evicted []Event
	for _, e := range r.slow {
		if e.Seq < oldest {
			evicted = append(evicted, e)
		}
	}
	if len(evicted) == 0 {
		return ring
	}
	return append(evicted, ring...)
}

// Dropped returns how many events were overwritten by ring wrap-around
// since the last Arm (slow-op retention not counted).
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of events currently held in the ring.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		return len(r.ring)
	}
	return r.next
}

// The package-level functions operate on Default(), preserving the
// original single-recorder API for the CLIs and any code with no context
// in hand.

// Arm arms the default recorder.
func Arm(capacity int) { defaultRec.Arm(capacity) }

// Disarm disarms the default recorder.
func Disarm() { defaultRec.Disarm() }

// Armed reports whether the default recorder is accepting events.
func Armed() bool { return defaultRec.Armed() }

// SetSlowThreshold sets the default recorder's slow-op retention threshold.
func SetSlowThreshold(d time.Duration) { defaultRec.SetSlowThreshold(d) }

// Instant emits a point-in-time mark on the default recorder.
func Instant(name, cat string, args ...Arg) { defaultRec.Instant(name, cat, args...) }

// Events returns the default recorder's ring contents.
func Events() []Event { return defaultRec.Events() }

// SlowEvents returns the default recorder's slow-op log.
func SlowEvents() []Event { return defaultRec.SlowEvents() }

// Dump returns the default recorder's complete retained record.
func Dump() []Event { return defaultRec.Dump() }

// Dropped returns the default recorder's wrap-around drop count.
func Dropped() int64 { return defaultRec.Dropped() }

// Len returns the number of events in the default recorder's ring.
func Len() int { return defaultRec.Len() }
