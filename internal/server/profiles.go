package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	finq "repro"
	"repro/apiv1"
	"repro/internal/obs"
	"repro/internal/obs/prof"
)

// This file wires the prof package into the service: the SLO engine reads
// the RED counters, a trip cross-links the tripping request's exemplar and
// tail capture into a triggered profile capture, and three endpoints
// expose the results (GET /v1/slo, GET /debug/profiles, POST
// /debug/profiles/capture). GET /v1/version rides along: the same
// incident bundle — profile, trace, stats — is only comparable across
// builds when every snapshot names the build it came from.

// sloEndpoints are the pooled evaluation endpoints the default objectives
// cover; health probes and metric scrapes don't get SLOs.
var sloEndpoints = []string{"eval", "batch", "decide", "qe", "safety"}

// buildObjectives turns the config's scalar SLO knobs into one objective
// per pooled endpoint. Explicit cfg.SLOObjectives win; otherwise a zero
// SLOLatency disables the engine entirely.
func buildObjectives(cfg Config) []prof.Objective {
	if len(cfg.SLOObjectives) > 0 {
		return cfg.SLOObjectives
	}
	if cfg.SLOLatency <= 0 {
		return nil
	}
	objs := make([]prof.Objective, 0, len(sloEndpoints))
	for _, ep := range sloEndpoints {
		objs = append(objs, prof.Objective{
			Endpoint:      ep,
			LatencyUS:     cfg.SLOLatency.Microseconds(),
			LatencyTarget: cfg.SLOLatencyTarget,
			ErrorTarget:   cfg.SLOErrorTarget,
		})
	}
	return objs
}

// sloSource adapts the RED metric families into the engine's counts. Each
// objective's latency threshold is resolved once (bucket-rounded), so a
// tick is a handful of atomic loads per endpoint.
func sloSource(objectives []prof.Objective) prof.Source {
	thresholds := make(map[string]int64, len(objectives))
	for _, o := range objectives {
		thresholds[o.Endpoint] = o.EffectiveLatencyUS()
	}
	return func() map[string]prof.EndpointCounts {
		out := make(map[string]prof.EndpointCounts, len(thresholds))
		for ep, thresh := range thresholds {
			family := red[ep]
			if family == nil {
				continue
			}
			c := prof.EndpointCounts{
				Requests: family.requests.Value(),
				Errors:   family.errors.Value(),
				LatCount: family.latency.Count(),
			}
			if thresh > 0 {
				c.LatGood = family.latency.CountUnder(thresh)
			}
			out[ep] = c
		}
		return out
	}
}

// onSLOTrip is the engine's trip callback: it finds the request that
// evidenced the burn (the slowest latency bucket's exemplar for latency
// trips, the newest errored tail capture for error trips), cross-links
// its tail-sampler capture, and hands the capture store an async trigger.
// It runs on the engine's tick goroutine, so everything here is bounded:
// map lookups and an atomic gate — the profile itself records on the
// store's goroutine.
func (s *Server) onSLOTrip(tr prof.Trip) {
	meta := prof.Capture{
		Reason:   "slo:" + tr.Endpoint + ":" + tr.Dimension,
		Endpoint: tr.Endpoint,
	}
	meta.TraceID = s.tripEvidence(tr)
	caps := s.TailCaptures()
	if meta.TraceID != "" {
		for _, tc := range caps {
			if tc.TraceID == meta.TraceID {
				meta.TailID = tc.TraceID
				meta.QueryKey = tc.QueryKey
				break
			}
		}
	}
	if meta.TailID == "" {
		// The exemplar may predate this server's tail ring (the RED
		// histograms are process-cumulative, the ring is per server and
		// bounded). Fall back to the newest retained capture that matches
		// the tripped dimension so the profile still links to a live trace.
		want := ReasonSlow
		if tr.Dimension == prof.DimErrors {
			want = ReasonError
		}
		for i := len(caps) - 1; i >= 0; i-- {
			if caps[i].Endpoint == tr.Endpoint && caps[i].Reason == want {
				meta.TailID = caps[i].TraceID
				meta.QueryKey = caps[i].QueryKey
				if meta.TraceID == "" {
					meta.TraceID = caps[i].TraceID
				}
				break
			}
		}
	}
	started, why := s.profStore.Trigger(meta)
	s.logger().LogAttrs(context.Background(), slog.LevelWarn, "slo trip",
		slog.String("endpoint", tr.Endpoint),
		slog.String("dimension", tr.Dimension),
		slog.Float64("burn_fast", tr.FastBurn),
		slog.Float64("burn_slow", tr.SlowBurn),
		slog.String("trace_id", meta.TraceID),
		slog.Bool("capture_started", started),
		slog.String("capture_skipped", why),
	)
}

// tripEvidence picks the trace ID of a request that evidences the trip:
// for latency, the exemplar of the highest occupied latency bucket above
// the objective's threshold (the slowest recent request); for errors, the
// newest errored or slow tail capture on the endpoint.
func (s *Server) tripEvidence(tr prof.Trip) string {
	family := red[tr.Endpoint]
	if family == nil {
		return ""
	}
	if tr.Dimension == prof.DimLatency {
		thresh := int64(0)
		for _, o := range s.objectives {
			if o.Endpoint == tr.Endpoint {
				thresh = o.EffectiveLatencyUS()
			}
		}
		lo := obs.BucketIndex(thresh) + 1
		for i := obs.NumBuckets - 1; i >= lo; i-- {
			if ex := family.latency.ExemplarFor(i); ex != nil {
				return ex.TraceID
			}
		}
		return ""
	}
	caps := s.TailCaptures()
	for i := len(caps) - 1; i >= 0; i-- {
		if caps[i].Endpoint == tr.Endpoint && caps[i].Reason == ReasonError {
			return caps[i].TraceID
		}
	}
	return ""
}

// SLOResponse is the body of GET /v1/slo.
type SLOResponse struct {
	Enabled      bool                  `json:"enabled"`
	TickMS       int64                 `json:"tick_ms,omitempty"`
	FastWindowMS int64                 `json:"fast_window_ms,omitempty"`
	SlowWindowMS int64                 `json:"slow_window_ms,omitempty"`
	TripBurn     float64               `json:"trip_burn,omitempty"`
	Endpoints    []prof.EndpointStatus `json:"endpoints,omitempty"`
}

// handleSLO serves GET /v1/slo: the engine's window configuration and
// every objective's current burn state. With no SLO configured it answers
// {"enabled": false} rather than 404, so probes need no config knowledge.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if s.sloEngine == nil {
		writeJSON(w, http.StatusOK, SLOResponse{})
		return
	}
	tick, fast, slow, burn := s.sloEngine.Windows()
	writeJSON(w, http.StatusOK, SLOResponse{
		Enabled:      true,
		TickMS:       tick.Milliseconds(),
		FastWindowMS: fast.Milliseconds(),
		SlowWindowMS: slow.Milliseconds(),
		TripBurn:     burn,
		Endpoints:    s.sloEngine.Status(),
	})
}

// ProfilesResponse is the body of GET /debug/profiles without an id.
type ProfilesResponse struct {
	Armed    bool           `json:"armed"`
	Captures []prof.Capture `json:"captures"`
}

// handleProfiles serves GET /debug/profiles: no arguments lists the
// retained captures and the trigger gate; ?id= fetches one capture's
// metadata; ?id=&kind=cpu|heap downloads the raw pprof payload (feed it
// to `go tool pprof`).
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		caps := s.profStore.List()
		if caps == nil {
			caps = []prof.Capture{}
		}
		writeJSON(w, http.StatusOK, ProfilesResponse{Armed: s.profStore.Armed(), Captures: caps})
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		c, ok := s.profStore.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no profile capture %q", id)
			return
		}
		writeJSON(w, http.StatusOK, c)
		return
	}
	if kind != prof.KindCPU && kind != prof.KindHeap {
		writeError(w, http.StatusBadRequest, "unknown kind %q (want %q or %q)", kind, prof.KindCPU, prof.KindHeap)
		return
	}
	payload, ok := s.profStore.Payload(id, kind)
	if !ok {
		writeError(w, http.StatusNotFound, "no profile capture %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="`+id+`-`+kind+`.pb.gz"`)
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// maxManualCaptureMS bounds an on-demand capture window: CPU profiling is
// process-global, so a request cannot hold it for minutes.
const maxManualCaptureMS = 10_000

// captureRequest is the optional body of POST /debug/profiles/capture.
type captureRequest struct {
	DurationMS int64 `json:"duration_ms,omitempty"`
}

// handleProfileCapture serves POST /debug/profiles/capture: a synchronous
// CPU+heap capture (the configured window, or ?dur_ms= / a JSON
// {"duration_ms": N} body, capped at 10s), answering with the completed
// capture's metadata. 409 when a capture is already in flight.
func (s *Server) handleProfileCapture(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var durMS int64
	if q := r.URL.Query().Get("dur_ms"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad dur_ms %q", q)
			return
		}
		durMS = n
	}
	if durMS == 0 && r.Body != nil {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<12))
		if err == nil && len(body) > 0 {
			var req captureRequest
			if jsonErr := json.Unmarshal(body, &req); jsonErr != nil {
				writeError(w, http.StatusBadRequest, "bad request body: %v", jsonErr)
				return
			}
			if req.DurationMS < 0 {
				writeError(w, http.StatusBadRequest, "negative duration_ms")
				return
			}
			durMS = req.DurationMS
		}
	}
	if durMS > maxManualCaptureMS {
		writeError(w, http.StatusBadRequest, "duration %dms exceeds the %dms cap", durMS, maxManualCaptureMS)
		return
	}
	meta := prof.Capture{Reason: "manual"}
	if rw, ok := w.(*respWriter); ok {
		meta.TraceID = rw.traceID
	}
	c, err := s.profStore.CaptureNow(meta, time.Duration(durMS)*time.Millisecond)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, *c)
}

// handleVersion serves GET /v1/version: the build identity the binary
// already embeds (finq.Build), in the apiv1.VersionResponse wire form, so
// profiles, traces, and stats snapshots can be pinned to the exact build
// that produced them.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	b := finq.Build()
	writeJSON(w, http.StatusOK, apiv1.VersionResponse{
		Version:     b.Version,
		GoVersion:   b.GoVersion,
		VCSRevision: b.VCSRevision,
		VCSTime:     b.VCSTime,
		Modified:    b.Modified,
		Line:        finq.Version(),
	})
}
