// Package server implements finqd, the query service: an HTTP/JSON front
// end over the finq facade. Every endpoint evaluates through
// finq.Eval (or the matching facade call) under the request's context, so
// a client deadline or disconnect stops the computation between rows,
// probes, and quantifier-elimination stages, and a deadline that expires
// mid-enumeration still returns the rows found so far as a partial result.
//
// Endpoints:
//
//	POST /v1/eval           evaluate a formula over a domain and state;
//	                        ?stream=1 or an Accept of application/x-ndjson
//	                        or application/x-finq-frames streams enumeration
//	                        rows as they are found (stream.go)
//	POST /v1/eval/batch     evaluate many queries against one shared state
//	                        under one per-batch deadline (batch.go)
//	POST /v1/decide         decide a pure-domain sentence
//	POST /v1/qe             quantifier-eliminate a formula
//	POST /v1/safety         relative-safety analysis of a query
//	GET  /v1/domains        list the registered domains
//	GET  /v1/stats/queries  per-query stats, top-K by latency/count/selectivity/allocs
//	GET  /v1/slo            SLO burn-rate summary per endpoint objective
//	GET  /v1/version        build identity (module version, VCS stamp, toolchain)
//	GET  /healthz           liveness (200 while the process serves HTTP)
//	GET  /readyz            readiness (503 once a drain begins)
//	GET  /debug/slow        tail-sampled request captures; no args lists
//	                        them, ?id= fetches one span subtree by trace ID
//	GET  /debug/queries     per-query stats as a text table
//	GET  /debug/profiles    triggered CPU+heap profile captures; ?id=&kind=
//	                        downloads raw pprof bytes
//	POST /debug/profiles/capture  on-demand bounded CPU+heap capture
//	GET  /metrics           Prometheus metrics (also /debug/obs, /debug/pprof/)
//
// Every request is request-scoped observable under one ID, its W3C trace
// ID: adopted from the caller's `traceparent` or minted as a fresh root,
// echoed in the response's `traceparent`, threaded through the evaluation
// context — so structured logs, obs spans, and flight-recorder events all
// carry it — reported in JSON error bodies, and logged in one access line
// per request alongside per-endpoint RED metrics. The latency histograms
// carry the ID onward as per-bucket OpenMetrics exemplars, and a tail
// sampler retains the full span subtree of slow, errored, and
// first-seen-query requests, so a latency bucket on /metrics leads to a
// concrete trace on /debug/slow by trace ID.
//
// Concurrency is bounded by a worker pool: at most Workers requests
// evaluate at once, at most QueueDepth more wait for a slot, and anything
// beyond that is rejected with 429 so overload degrades by shedding rather
// than by queueing without bound. Handler panics become 500s. Shutdown
// flips /readyz, then drains in-flight requests.
//
// The wire contract — request and response bodies, the error envelope with
// its closed code set, the streaming line/frame types — is defined once in
// package apiv1; every handler builds against those types, and the typed
// client package decodes them.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/apiv1"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/trace"
	"repro/internal/runcfg"
)

// Config tunes the service. The zero value serves on an ephemeral local
// port with GOMAXPROCS workers and interactive-scale timeouts.
type Config struct {
	// Addr is the listen address; "" means "127.0.0.1:0".
	Addr string
	// Workers bounds concurrent evaluations; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a worker slot beyond the
	// Workers already evaluating; past it requests get 429. <= 0 means
	// 2 * Workers.
	QueueDepth int
	// EvalTimeout bounds /v1/eval requests; <= 0 means 30s.
	EvalTimeout time.Duration
	// DecideTimeout bounds /v1/decide, /v1/qe, and /v1/safety requests;
	// <= 0 means 10s.
	DecideTimeout time.Duration
	// MaxBody bounds request bodies in bytes; <= 0 means 1 MiB.
	MaxBody int64
	// MaxBatchItems bounds the items of one POST /v1/eval/batch request;
	// <= 0 means 256.
	MaxBatchItems int
	// SlowRequest is the duration at or above which a request gets a
	// slow-query capture (span subtree + warning log); <= 0 means 1s.
	SlowRequest time.Duration
	// DrainGrace is how long Shutdown waits between flipping /readyz to
	// 503 and closing the listener, giving balancers time to stop routing;
	// 0 means no wait.
	DrainGrace time.Duration
	// Logger receives the access log and slow-request warnings; nil means
	// slog.Default() (which cliutil.Setup configures from -log-level and
	// -log-format). Their trace_id comes from a logctx handler, which
	// injects it from the request's context.
	Logger *slog.Logger
	// ServiceName names this process in exported traces: the OTLP
	// service.name resource attribute of /debug/trace/export and the
	// process lane label of stitched multi-process traces. "" means
	// "finqd".
	ServiceName string
	// TraceRecorder routes this server's flight-recorder events to a
	// dedicated recorder instance, so several servers in one process
	// (tests, finqload shards) record into separate rings; nil means the
	// process-wide default recorder.
	TraceRecorder *trace.Recorder
	// Run is the run configuration every request evaluates and decides
	// under (finqd's -plan and -cache); the zero value uses the planner
	// and the decision cache.
	Run runcfg.Config

	// SLOLatency enables the SLO burn-rate engine: each pooled endpoint
	// (eval, decide, qe, safety) gets a latency objective at this threshold
	// (bucket-rounded) and an error objective. <= 0 disables the engine
	// unless SLOObjectives is set explicitly.
	SLOLatency time.Duration
	// SLOLatencyTarget is the objective fraction of requests under
	// SLOLatency; <= 0 means 0.99.
	SLOLatencyTarget float64
	// SLOErrorTarget is the objective fraction of non-error requests;
	// <= 0 means 0.999, exactly 0 via the flag keeps the default.
	SLOErrorTarget float64
	// SLOObjectives overrides the per-endpoint objective construction
	// entirely (tests, unusual topologies).
	SLOObjectives []prof.Objective
	// SLOTick, SLOFastWindow, SLOSlowWindow, and SLOTripBurn tune the
	// engine's sampling and trip thresholds; zero values take the prof
	// package defaults (10s, 1m, 10m, burn 8).
	SLOTick       time.Duration
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	SLOTripBurn   float64

	// ProfileCapture arms trigger-based profile capture on SLO trips
	// (manual POST /debug/profiles/capture works regardless). Default on;
	// the flag -profile-capture=false disarms.
	ProfileCaptureDisarmed bool
	// ProfileRing bounds retained captures; <= 0 means 8.
	ProfileRing int
	// ProfileCPUDuration bounds each capture's CPU window; <= 0 means 2s.
	ProfileCPUDuration time.Duration
	// ProfileCooldown suppresses repeat captures for one trigger reason;
	// <= 0 means 5m.
	ProfileCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.EvalTimeout <= 0 {
		c.EvalTimeout = 30 * time.Second
	}
	if c.DecideTimeout <= 0 {
		c.DecideTimeout = 10 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.SlowRequest <= 0 {
		c.SlowRequest = time.Second
	}
	if c.SLOLatencyTarget <= 0 {
		c.SLOLatencyTarget = 0.99
	}
	if c.ServiceName == "" {
		c.ServiceName = "finqd"
	}
	if c.SLOErrorTarget <= 0 {
		c.SLOErrorTarget = 0.999
	}
	return c
}

// Service metrics, on /metrics alongside the evaluator and decision-cache
// families (the deccache.hits / deccache.misses hit rate comes for free
// because the registry's deciders are process-wide, so the cache is shared
// across requests).
var (
	mRequests = obs.NewCounter("server.requests")
	mRejected = obs.NewCounter("server.rejected")
	mErrors   = obs.NewCounter("server.errors")
	mPanics   = obs.NewCounter("server.panics")
	gInflight = obs.NewGauge("server.inflight")
	hLatency  = obs.NewHistogram("server.latency_us")
)

func init() {
	obs.SetHelp("server.requests", "Total requests received, all endpoints.")
	obs.SetHelp("server.rejected", "Requests shed with 429 at the admission gate.")
	obs.SetHelp("server.errors", "Handler errors across the pooled endpoints.")
	obs.SetHelp("server.panics", "Handler panics converted to 500 responses.")
	obs.SetHelp("server.inflight", "Worker slots currently evaluating.")
	obs.SetHelp("server.latency_us", "Pooled-endpoint handler latency, microseconds.")
}

// Server is the finqd HTTP service. Create with New, run with Start, stop
// with Shutdown.
type Server struct {
	cfg      Config
	slots    chan struct{}
	queued   atomic.Int64
	http     *http.Server
	ln       net.Listener
	draining atomic.Bool
	sampStop func()
	// rec is the server's flight recorder (Config.TraceRecorder, or the
	// process default): request spans record into it, /debug/trace/export
	// reads it, and the tail sampler snapshots subtrees from it.
	rec *trace.Recorder
	tailSampler

	// Profile-guided observability: the capture store always exists (the
	// manual capture endpoint needs no SLO); the engine exists only when
	// objectives are configured, and Start/Shutdown drive its ticker.
	profStore  *prof.Store
	objectives []prof.Objective
	sloEngine  *prof.Engine
	sloStop    func()
}

// New builds a server from the config. Nothing listens until Start.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, slots: make(chan struct{}, cfg.Workers)}
	s.rec = cfg.TraceRecorder
	if s.rec == nil {
		s.rec = trace.Default()
	}
	s.profStore = prof.NewStore(prof.StoreConfig{
		Ring:        cfg.ProfileRing,
		CPUDuration: cfg.ProfileCPUDuration,
		Cooldown:    cfg.ProfileCooldown,
	})
	if cfg.ProfileCaptureDisarmed {
		s.profStore.Disarm()
	}
	s.objectives = buildObjectives(cfg)
	if len(s.objectives) > 0 {
		eng, err := prof.NewEngine(prof.EngineConfig{
			Objectives: s.objectives,
			Source:     sloSource(s.objectives),
			Tick:       cfg.SLOTick,
			FastWindow: cfg.SLOFastWindow,
			SlowWindow: cfg.SLOSlowWindow,
			TripBurn:   cfg.SLOTripBurn,
			OnTrip:     s.onSLOTrip,
		})
		if err != nil {
			// Objectives come from flags or code; a bad set is a programming
			// or deployment error, surfaced at construction.
			panic(fmt.Sprintf("server: building SLO engine: %v", err))
		}
		s.sloEngine = eng
	}
	s.http = &http.Server{Handler: s.Handler()}
	return s
}

// Handler returns the full route table, wrapped (outside in) in the
// instrument middleware — trace ID, access log, RED metrics, slow-query
// capture — and panic recovery. It is usable directly with httptest
// servers.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	debug := obs.Handler()
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)
	mux.HandleFunc("/debug/slow", s.handleSlow)
	mux.HandleFunc("/debug/trace/export", s.handleTraceExport)
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/profiles", s.handleProfiles)
	mux.HandleFunc("/debug/profiles/capture", s.handleProfileCapture)
	mux.HandleFunc("/v1/domains", s.handleDomains)
	mux.HandleFunc("/v1/stats/queries", s.handleQueryStats)
	mux.HandleFunc("/v1/slo", s.handleSLO)
	mux.HandleFunc("/v1/version", s.handleVersion)
	mux.Handle("/v1/eval", s.endpoint("eval", s.cfg.EvalTimeout, s.handleEval))
	mux.Handle("/v1/eval/batch", s.endpoint("batch", s.cfg.EvalTimeout, s.handleBatch))
	mux.Handle("/v1/decide", s.endpoint("decide", s.cfg.DecideTimeout, s.handleDecide))
	mux.Handle("/v1/qe", s.endpoint("qe", s.cfg.DecideTimeout, s.handleQE))
	mux.Handle("/v1/safety", s.endpoint("safety", s.cfg.DecideTimeout, s.handleSafety))
	return s.instrument(s.recovered(mux))
}

// Start listens on the configured address and serves in the background,
// returning the bound address (useful with a ":0" config). It also starts
// the runtime sampler feeding the runtime.* gauges on /metrics.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.sampStop = obs.StartRuntimeSampler(0)
	if s.sloEngine != nil {
		s.sloStop = s.sloEngine.Start()
	}
	go s.http.Serve(ln)
	return ln.Addr().String(), nil
}

// Shutdown drains gracefully: it flips /readyz to 503, waits DrainGrace
// (so a balancer polling readiness stops routing before the listener
// closes), then stops accepting connections and waits — up to the
// context's deadline — for in-flight requests to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.StartDrain()
	if s.cfg.DrainGrace > 0 {
		select {
		case <-time.After(s.cfg.DrainGrace):
		case <-ctx.Done():
		}
	}
	if s.sampStop != nil {
		defer s.sampStop()
	}
	if s.sloStop != nil {
		s.sloStop()
	}
	return s.http.Shutdown(ctx)
}

// apiError carries an HTTP status out of a handler; its machine-readable
// code is the status's (codeForStatus). Handlers return it for client
// mistakes; any other error is a 503 deadline when it is the deadline and
// a 422 eval_failed otherwise (the request was well-formed but the
// evaluation failed).
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

// errf builds an apiError.
func errf(status int, format string, args ...any) error {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// codeForStatus maps an HTTP status onto its default machine code from
// the apiv1 closed set.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return apiv1.CodeBadRequest
	case http.StatusNotFound:
		return apiv1.CodeNotFound
	case http.StatusMethodNotAllowed:
		return apiv1.CodeMethodNotAllowed
	case http.StatusConflict:
		return apiv1.CodeConflict
	case http.StatusRequestEntityTooLarge:
		return apiv1.CodePayloadTooLarge
	case http.StatusUnprocessableEntity:
		return apiv1.CodeEvalFailed
	case http.StatusTooManyRequests:
		return apiv1.CodeOverCapacity
	case http.StatusServiceUnavailable:
		return apiv1.CodeUnavailable
	default:
		return apiv1.CodeInternal
	}
}

// handlerEnv is what a pooled endpoint's handler gets to work with: the
// decoded-size-checked body plus the raw request and writer, so the eval
// handler can negotiate streaming and take over the response.
type handlerEnv struct {
	w    http.ResponseWriter
	r    *http.Request
	body []byte
}

// streamed is a handler's sentinel return value: the handler already
// wrote the response (a streaming body), so endpoint must not encode
// anything.
type streamed struct{}

// handlerFunc is a pooled endpoint's core: decode the body, compute under
// the deadline, return the response value (encoded as JSON) or an error —
// or streamed{} after writing the response directly.
type handlerFunc func(ctx context.Context, env *handlerEnv) (any, error)

// endpoint wraps a handler with the service plumbing, in order: method
// check, admission control (queue-depth limit then worker slot), body
// limit, per-endpoint deadline, span + metrics, JSON encoding. A handler
// error that is the deadline answers 503 "deadline"; other errors that are
// not apiErrors answer 422 "eval_failed".
func (s *Server) endpoint(name string, timeout time.Duration, h handlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		// Admission: the queued count includes the requests holding slots,
		// so the capacity line is Workers evaluating + QueueDepth waiting.
		n := s.queued.Add(1)
		defer s.queued.Add(-1)
		if n > int64(s.cfg.Workers+s.cfg.QueueDepth) {
			mRejected.Inc()
			if st := stateFrom(r.Context()); st != nil {
				st.shed = true
			}
			writeError(w, http.StatusTooManyRequests,
				"server at capacity (%d evaluating, %d queued); retry later", s.cfg.Workers, s.cfg.QueueDepth)
			return
		}
		select {
		case s.slots <- struct{}{}:
		case <-r.Context().Done():
			// The client gave up while queued; nothing is listening for
			// the response, but complete the exchange anyway.
			writeErrorCode(w, http.StatusServiceUnavailable, apiv1.CodeClientGone,
				"client went away while queued")
			return
		}
		defer func() { <-s.slots }()
		gInflight.Set(int64(len(s.slots)))
		defer func() { gInflight.Set(int64(len(s.slots) - 1)) }()

		body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		if int64(len(body)) > s.cfg.MaxBody {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBody)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		// The context carries the trace position (instrument middleware),
		// so this span's begin/end trace events — and every evaluator span
		// below it — are greppable by trace ID and form a tree under the
		// request span in the exported trace.
		ctx, sp := obs.StartSpanCtx(ctx, "server."+name)
		t0 := time.Now()
		out, err := h(ctx, &handlerEnv{w: w, r: r, body: body})
		sp.End()
		traceID := ""
		if st := stateFrom(ctx); st != nil {
			traceID = st.traceID
		}
		hLatency.ObserveExemplar(time.Since(t0).Microseconds(), traceID)
		if err != nil {
			mErrors.Inc()
			if ae, ok := err.(*apiError); ok {
				writeError(w, ae.status, "%s", ae.msg)
				return
			}
			if errors.Is(err, context.DeadlineExceeded) {
				writeErrorCode(w, http.StatusServiceUnavailable, apiv1.CodeDeadline, "%s exceeded the deadline: %v", name, err)
				return
			}
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		if _, ok := out.(streamed); ok {
			return // the handler wrote the response itself
		}
		writeJSON(w, http.StatusOK, out)
	})
}

// recovered turns handler panics into 500 responses instead of killed
// connections, counts them, and flags the request state so the access log
// carries panic=true.
func (s *Server) recovered(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				mPanics.Inc()
				if st := stateFrom(r.Context()); st != nil {
					st.panicked = true
				}
				writeError(w, http.StatusInternalServerError, "internal error: %v", p)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// writeError writes the uniform apiv1 error envelope with the code
// derived from the status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorCode(w, status, codeForStatus(status), format, args...)
}

// writeErrorCode writes the uniform apiv1 error envelope:
//
//	{"error": {"code": "...", "message": "...", "trace_id": "..."}}
//
// Every error site goes through here — 429 sheds and panic 500s included
// — so clients see one error shape with a code from the closed set.
func writeErrorCode(w http.ResponseWriter, status int, errCode, format string, args ...any) {
	body := apiv1.ErrorEnvelope{Error: apiv1.Error{
		Code:    errCode,
		Message: fmt.Sprintf(format, args...),
	}}
	// The instrument middleware's writer carries the trace ID down to
	// every error site — including 429 sheds and panic 500s — without
	// each call threading a context.
	if rw, ok := w.(*respWriter); ok {
		body.Error.TraceID = rw.traceID
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// The response value failed to encode; send a hand-built envelope so
		// even this path keeps the error shape.
		http.Error(w, fmt.Sprintf(`{"error": {"code": %q, "message": %q}}`,
			apiv1.CodeInternal, err.Error()), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}
