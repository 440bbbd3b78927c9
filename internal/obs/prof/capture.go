package prof

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Capture-store metrics, on /metrics alongside every other obs family.
var (
	mCaptures   = obs.NewCounter("prof.captures")
	mCapErrors  = obs.NewCounter("prof.capture_errors")
	mSuppressed = obs.NewCounter("prof.captures_suppressed")
	gHeld       = obs.NewGauge("prof.captures_held")
	gCapturing  = obs.NewGauge("prof.capturing")
)

func init() {
	obs.SetHelp("prof.captures", "Completed CPU+heap profile captures.")
	obs.SetHelp("prof.capture_errors", "Profile captures that failed to start or complete.")
	obs.SetHelp("prof.captures_suppressed", "Triggered captures suppressed by the disarm gate, the per-reason cooldown, or an in-flight capture.")
	obs.SetHelp("prof.captures_held", "Profile captures currently retained in the ring.")
	obs.SetHelp("prof.capturing", "1 while a CPU profile capture is in flight.")
}

// Capture is one retained CPU+heap profile pair's metadata. The profile
// payloads stay out of the JSON (GET /debug/profiles lists Captures;
// ?id=&kind=cpu|heap downloads the bytes).
type Capture struct {
	// ID identifies the capture for download ("prof-0001", ...).
	ID string `json:"id"`
	// Reason is why the capture ran: "manual" or "slo:<endpoint>:<dim>".
	Reason string `json:"reason"`
	// Endpoint is the RED endpoint whose burn tripped, when SLO-triggered.
	Endpoint string `json:"endpoint,omitempty"`
	// TraceID names the request that evidenced the trip (its exemplar) or
	// asked for a manual capture; TailID is the tail-sampler capture
	// retained for the tripping request, when one exists, so the profile
	// links to a concrete span subtree.
	TraceID string `json:"trace_id,omitempty"`
	TailID  string `json:"tail_id,omitempty"`
	// QueryKey is the tripping request's canonical query key, when known.
	QueryKey string `json:"query_key,omitempty"`
	// StartUnixMS and DurationMS bound the CPU profile window.
	StartUnixMS int64 `json:"start_unix_ms"`
	DurationMS  int64 `json:"duration_ms"`
	// CPUBytes and HeapBytes are the payload sizes.
	CPUBytes  int `json:"cpu_bytes"`
	HeapBytes int `json:"heap_bytes"`

	cpu  []byte
	heap []byte
}

// StoreConfig tunes a capture store.
type StoreConfig struct {
	// Ring bounds retained captures (default 8); the oldest is evicted.
	Ring int
	// CPUDuration bounds each capture's CPU profile window (default 2s).
	CPUDuration time.Duration
	// Cooldown suppresses repeat triggers for the same reason (default
	// 5m), so a burn that stays over threshold across ticks yields one
	// capture per incident, not one per tick.
	Cooldown time.Duration
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.Ring <= 0 {
		c.Ring = 8
	}
	if c.CPUDuration <= 0 {
		c.CPUDuration = 2 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Minute
	}
	return c
}

// Store is the bounded profile-capture retention store: a ring of
// completed captures, an armed/disarmed gate for automatic triggers, a
// per-reason cooldown, and a single-flight latch (CPU profiling is
// process-global, so at most one capture runs at a time).
type Store struct {
	cfg StoreConfig

	armed     atomic.Bool
	capturing atomic.Bool

	mu         sync.Mutex
	caps       []*Capture // newest last
	seq        int
	lastReason map[string]time.Time
}

// NewStore builds a store; automatic triggers start armed.
func NewStore(cfg StoreConfig) *Store {
	s := &Store{cfg: cfg.withDefaults(), lastReason: map[string]time.Time{}}
	s.armed.Store(true)
	return s
}

// Arm enables automatic (SLO-trigger) captures.
func (s *Store) Arm() { s.armed.Store(true) }

// Disarm disables automatic captures; manual CaptureNow still works.
func (s *Store) Disarm() { s.armed.Store(false) }

// Armed reports the automatic-trigger gate.
func (s *Store) Armed() bool { return s.armed.Load() }

// Trigger starts an asynchronous capture for an automatic trigger unless
// the store is disarmed, the reason is within its cooldown, or another
// capture is in flight. It returns whether a capture was started and, if
// not, why ("disarmed", "cooldown", "busy").
func (s *Store) Trigger(meta Capture) (started bool, why string) {
	if !s.armed.Load() {
		mSuppressed.Inc()
		return false, "disarmed"
	}
	now := time.Now()
	s.mu.Lock()
	if last, ok := s.lastReason[meta.Reason]; ok && now.Sub(last) < s.cfg.Cooldown {
		s.mu.Unlock()
		mSuppressed.Inc()
		return false, "cooldown"
	}
	s.lastReason[meta.Reason] = now
	s.mu.Unlock()
	if !s.capturing.CompareAndSwap(false, true) {
		mSuppressed.Inc()
		return false, "busy"
	}
	go func() {
		defer s.capturing.Store(false)
		s.capture(meta, s.cfg.CPUDuration)
	}()
	return true, ""
}

// CaptureNow runs a synchronous capture (the POST /debug/profiles/capture
// path), honoring only the single-flight latch — an operator asking for a
// profile overrides the disarm gate and the cooldown. A non-positive dur
// uses the configured default.
func (s *Store) CaptureNow(meta Capture, dur time.Duration) (*Capture, error) {
	if dur <= 0 {
		dur = s.cfg.CPUDuration
	}
	if !s.capturing.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("prof: a capture is already in flight")
	}
	defer s.capturing.Store(false)
	return s.capture(meta, dur)
}

// capture records the CPU profile for dur, then the heap profile, and
// retains the pair in the ring. Caller holds the single-flight latch.
func (s *Store) capture(meta Capture, dur time.Duration) (*Capture, error) {
	gCapturing.Set(1)
	defer gCapturing.Set(0)
	var cpuBuf bytes.Buffer
	start := time.Now()
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		// Another profiler owns the CPU (e.g. a live /debug/pprof/profile
		// scrape); record the failure and drop the capture.
		mCapErrors.Inc()
		return nil, fmt.Errorf("prof: starting CPU profile: %w", err)
	}
	time.Sleep(dur)
	pprof.StopCPUProfile()

	var heapBuf bytes.Buffer
	if p := pprof.Lookup("heap"); p != nil {
		if err := p.WriteTo(&heapBuf, 0); err != nil {
			mCapErrors.Inc()
			heapBuf.Reset()
		}
	}

	c := meta // copy the caller's metadata (reason, links)
	c.StartUnixMS = start.UnixMilli()
	c.DurationMS = time.Since(start).Milliseconds()
	c.cpu = cpuBuf.Bytes()
	c.heap = heapBuf.Bytes()
	c.CPUBytes = len(c.cpu)
	c.HeapBytes = len(c.heap)

	s.mu.Lock()
	s.seq++
	c.ID = fmt.Sprintf("prof-%04d", s.seq)
	if len(s.caps) >= s.cfg.Ring {
		s.caps = append(s.caps[:0], s.caps[1:]...)
	}
	s.caps = append(s.caps, &c)
	held := len(s.caps)
	s.mu.Unlock()

	mCaptures.Inc()
	gHeld.Set(int64(held))
	return &c, nil
}

// List returns every retained capture's metadata, oldest first.
func (s *Store) List() []Capture {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Capture, 0, len(s.caps))
	for _, c := range s.caps {
		cc := *c
		cc.cpu, cc.heap = nil, nil
		out = append(out, cc)
	}
	return out
}

// Get returns one capture's metadata by ID.
func (s *Store) Get(id string) (Capture, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.caps {
		if c.ID == id {
			cc := *c
			cc.cpu, cc.heap = nil, nil
			return cc, true
		}
	}
	return Capture{}, false
}

// Profile kinds for Payload.
const (
	KindCPU  = "cpu"
	KindHeap = "heap"
)

// Payload returns a capture's raw pprof bytes by ID and kind.
func (s *Store) Payload(id, kind string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.caps {
		if c.ID != id {
			continue
		}
		switch kind {
		case KindCPU:
			return c.cpu, true
		case KindHeap:
			return c.heap, true
		}
		return nil, false
	}
	return nil, false
}
