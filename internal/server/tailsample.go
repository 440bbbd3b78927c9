package server

import (
	"context"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs/trace"
)

// tailPerEndpoint bounds each endpoint's capture reservoir; the oldest
// capture is evicted when a new one arrives at capacity. Per-endpoint
// reservoirs keep a chatty endpoint (eval) from evicting the rare capture
// of a quiet one (safety).
const tailPerEndpoint = 16

// tailSeenCap bounds the first-seen key set. Past it no new key is marked
// (so no new first-key captures happen), which keeps a key-churning client
// from growing the set without bound.
const tailSeenCap = 16384

// Tail-capture reasons, in priority order: a request that is both slow and
// errored records as slow.
const (
	// ReasonSlow marks a request at or above Config.SlowRequest.
	ReasonSlow = "slow"
	// ReasonError marks a request answered with status >= 400 (sheds
	// excluded — a 429 carries no evaluation worth tracing, and overload
	// would flood the reservoir).
	ReasonError = "error"
	// ReasonFirstKey marks the first request ever seen for a query's
	// CanonicalKey, so every distinct query has at least one full trace on
	// hand — the trace a qstats entry links back to.
	ReasonFirstKey = "first-key"
)

// TailCapture is one sampled request's record: the access-log facts, why
// it was retained, and the request's span subtree snapshotted from the
// flight recorder (empty when the recorder was not armed at capture
// time), each event in the form of a /debug/trace/export?format=jsonl
// line. GET /debug/slow lists the captures; ?id=<trace id> retrieves one
// in full.
type TailCapture struct {
	TraceID    string            `json:"trace_id"`
	Endpoint   string            `json:"endpoint"`
	Status     int               `json:"status"`
	DurationUS int64             `json:"duration_us"`
	Reason     string            `json:"reason"`
	QueryKey   string            `json:"query_key,omitempty"`
	Rows       int64             `json:"rows,omitempty"`
	Stopped    string            `json:"stopped,omitempty"`
	Events     []trace.EventJSON `json:"events,omitempty"`
}

// TailListing is one row of the GET /debug/slow index: enough to decide
// which capture to fetch, without the event payload.
type TailListing struct {
	TraceID    string `json:"trace_id"`
	Endpoint   string `json:"endpoint"`
	Status     int    `json:"status"`
	DurationUS int64  `json:"duration_us"`
	Reason     string `json:"reason"`
}

// tailSampler is the server's bounded tail-sample store: per-endpoint
// reservoirs of retained captures plus the set of query keys already seen
// (for first-key sampling).
type tailSampler struct {
	tailMu sync.Mutex
	tails  map[string][]TailCapture // per endpoint, newest last
	seen   map[string]bool
}

// markFirstSeen records the query key as seen and reports whether this was
// its first sighting (false once the seen set is full).
func (s *Server) markFirstSeen(key string) bool {
	s.tailMu.Lock()
	defer s.tailMu.Unlock()
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	if s.seen[key] || len(s.seen) >= tailSeenCap {
		return false
	}
	s.seen[key] = true
	return true
}

// captureTail snapshots a sampled request: its span subtree is pulled from
// the flight recorder by trace ID and the capture is retained in its
// endpoint's reservoir. Slow requests additionally log a warning so they
// are visible in the log stream under the same ID as their access line;
// error and first-key captures log at debug (the access line already
// reports errors at warn or above).
func (s *Server) captureTail(ctx context.Context, st *reqState, status int, dur time.Duration, reason string) {
	c := TailCapture{
		TraceID:    st.traceID,
		Endpoint:   st.endpoint,
		Status:     status,
		DurationUS: dur.Microseconds(),
		Reason:     reason,
		QueryKey:   st.queryKey,
		Rows:       st.rows,
		Stopped:    st.stopped,
		Events:     s.subtreeEvents(st.traceID),
	}
	s.tailMu.Lock()
	if s.tails == nil {
		s.tails = map[string][]TailCapture{}
	}
	q := s.tails[st.endpoint]
	if len(q) >= tailPerEndpoint {
		q = append(q[:0], q[1:]...)
	}
	s.tails[st.endpoint] = append(q, c)
	s.tailMu.Unlock()

	level := slog.LevelDebug
	msg := "tail sample"
	if reason == ReasonSlow {
		level, msg = slog.LevelWarn, "slow request"
	}
	s.logger().LogAttrs(ctx, level, msg,
		slog.String("endpoint", st.endpoint),
		slog.String("reason", reason),
		slog.Int64("dur_us", c.DurationUS),
		slog.Int("trace_events", len(c.Events)),
	)
}

// TailCaptures returns every retained capture, ordered by endpoint name
// and, within an endpoint, oldest first.
func (s *Server) TailCaptures() []TailCapture {
	s.tailMu.Lock()
	defer s.tailMu.Unlock()
	endpoints := make([]string, 0, len(s.tails))
	for e := range s.tails {
		endpoints = append(endpoints, e)
	}
	sort.Strings(endpoints)
	var out []TailCapture
	for _, e := range endpoints {
		out = append(out, s.tails[e]...)
	}
	return out
}

// handleSlow serves GET /debug/slow: with no parameters, the capture
// index (trace IDs with endpoint, status, duration, and retention
// reason); with ?id=<trace id>, the newest full capture of that trace
// including its span subtree (404 when the ID has no capture).
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	caps := s.TailCaptures()
	id := r.URL.Query().Get("id")
	if id == "" {
		listing := make([]TailListing, 0, len(caps))
		for _, c := range caps {
			listing = append(listing, TailListing{
				TraceID:    c.TraceID,
				Endpoint:   c.Endpoint,
				Status:     c.Status,
				DurationUS: c.DurationUS,
				Reason:     c.Reason,
			})
		}
		writeJSON(w, http.StatusOK, listing)
		return
	}
	for i := len(caps) - 1; i >= 0; i-- {
		if caps[i].TraceID == id {
			writeJSON(w, http.StatusOK, caps[i])
			return
		}
	}
	writeError(w, http.StatusNotFound, "no tail-sample capture for id %q", id)
}

// subtreeEvents extracts one request's span subtree from the server's
// flight recorder. Events carrying the request's trace ID anchor the
// selection; events on the same goroutines within the anchored time
// windows are the children (per-row spans, QE stages) that don't carry
// the identity themselves. Returns nil when the recorder holds nothing
// for the request (disarmed, or the ring wrapped past it).
func (s *Server) subtreeEvents(traceID string) []trace.EventJSON {
	if !s.rec.Armed() {
		return nil
	}
	events := s.rec.Events()
	// Pass 1: anchored events establish the per-goroutine time windows.
	type window struct{ lo, hi int64 }
	windows := map[int64]*window{}
	for _, e := range events {
		if e.Trace != traceID {
			continue
		}
		lo, hi := e.TS, e.TS
		if e.Phase == trace.PhaseEnd && e.Dur > 0 {
			lo = e.TS - e.Dur
		}
		w, ok := windows[e.TID]
		if !ok {
			windows[e.TID] = &window{lo: lo, hi: hi}
			continue
		}
		if lo < w.lo {
			w.lo = lo
		}
		if hi > w.hi {
			w.hi = hi
		}
	}
	if len(windows) == 0 {
		return nil
	}
	// Pass 2: collect every event inside an anchored window.
	var out []trace.EventJSON
	for _, e := range events {
		w, ok := windows[e.TID]
		if !ok || e.TS < w.lo || e.TS > w.hi {
			continue
		}
		out = append(out, e.JSON())
	}
	return out
}
