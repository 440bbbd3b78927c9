package server

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/trace"
	"repro/internal/obs/tracectx"
	"repro/internal/runcfg"
)

// reqState is the per-request scratchpad the middleware shares with the
// handlers: the request's identity plus the facts the access log reports.
// It lives in the request context; all writers run on the request's own
// goroutine (the recovered middleware included), so plain fields suffice.
type reqState struct {
	traceID  string
	endpoint string
	rows     int64
	stopped  string
	queryKey string
	shed     bool
	panicked bool
}

type reqStateKey struct{}

// stateFrom returns the request's reqState, or nil outside a request.
func stateFrom(ctx context.Context) *reqState {
	st, _ := ctx.Value(reqStateKey{}).(*reqState)
	return st
}

// noteRows records the answer cardinality for the access log.
func noteRows(ctx context.Context, n int64) {
	if st := stateFrom(ctx); st != nil {
		st.rows = n
	}
}

// noteStopped records the partial-result reason ("budget", "deadline",
// "canceled") for the access log.
func noteStopped(ctx context.Context, reason string) {
	if st := stateFrom(ctx); st != nil && reason != "" {
		st.stopped = reason
	}
}

// noteQueryKey records the evaluated formula's canonical key, feeding the
// tail sampler's first-seen-query sampling and the capture's QueryKey.
func noteQueryKey(ctx context.Context, key string) {
	if st := stateFrom(ctx); st != nil && key != "" {
		st.queryKey = key
	}
}

// respWriter captures the response status for the access log and carries
// the trace ID to writeError (so JSON error bodies can quote it without
// every call site threading the context).
type respWriter struct {
	http.ResponseWriter
	status  int
	traceID string
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController, so the
// streaming handler can flush through this wrapper.
func (w *respWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// redSet is one endpoint's RED family: request and error counters plus a
// latency histogram (exposed on /metrics with cumulative buckets and
// _sum/_count via the obs Prometheus writer).
type redSet struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// redEndpoints is the closed set of endpoint labels; unknown paths fold
// into "other" so a path scan cannot mint unbounded metric families.
var redEndpoints = []string{
	"eval", "batch", "decide", "qe", "safety", "domains", "stats", "slo",
	"version", "healthz", "readyz", "metrics", "debug", "other",
}

var red = func() map[string]*redSet {
	m := make(map[string]*redSet, len(redEndpoints))
	for _, e := range redEndpoints {
		m[e] = &redSet{
			requests: obs.NewCounter("server." + e + ".requests"),
			errors:   obs.NewCounter("server." + e + ".errors"),
			latency:  obs.NewHistogram("server." + e + ".latency_us"),
		}
		obs.SetHelp("server."+e+".requests", "Requests served on the "+e+" endpoint.")
		obs.SetHelp("server."+e+".errors", "Requests answered with status >= 400 on the "+e+" endpoint.")
		obs.SetHelp("server."+e+".latency_us", "Request latency on the "+e+" endpoint, microseconds.")
	}
	return m
}()

// endpointName maps a request path onto its RED label.
func endpointName(path string) string {
	switch path {
	case "/v1/eval":
		return "eval"
	case "/v1/eval/batch":
		return "batch"
	case "/v1/decide":
		return "decide"
	case "/v1/qe":
		return "qe"
	case "/v1/safety":
		return "safety"
	case "/v1/domains":
		return "domains"
	case "/v1/stats/queries":
		return "stats"
	case "/v1/slo":
		return "slo"
	case "/v1/version":
		return "version"
	case "/healthz":
		return "healthz"
	case "/readyz":
		return "readyz"
	case "/metrics":
		return "metrics"
	}
	if strings.HasPrefix(path, "/debug/") {
		return "debug"
	}
	return "other"
}

// logger returns the server's access-log destination (the process default
// when the config does not inject one).
func (s *Server) logger() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.Default()
}

// instrument is the outermost middleware: it gives the request its
// identity and emits the request-scoped observability.
//
//   - The request's identity is its W3C trace ID. The trace position is
//     extracted from `traceparent`/`tracestate` when well-formed, minted
//     as a fresh root otherwise (a malformed header is never an error),
//     and a request span is opened as its child — so every evaluator span
//     below records under one trace ID that survives the process
//     boundary. The request span's position is echoed as the response's
//     `traceparent` (all statuses, 429 sheds and panic 500s included).
//     The trace ID rides the context, so slog records, obs spans, pprof
//     labels, and latency exemplars carry it, and JSON error bodies quote
//     it. A caller that sends one trace ID on several requests names all
//     of them with it.
//   - Per-endpoint RED metrics: request count, error count (status >= 400),
//     latency histogram.
//   - One structured access-log line per request: method, endpoint,
//     status, duration, rows, partial-stop reason, shed/panic flags, and
//     the trace_id the log handler injects.
//   - Slow, errored, and first-seen-query requests get their span subtree
//     snapshotted from the flight recorder into the tail sampler
//     (tailsample.go).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Extract-or-mint the trace position. The parsed TC is the
		// *caller's* span (our parent); the request span below descends
		// from it. A fresh root is minted for headerless (or malformed)
		// requests so every request has a trace identity.
		tc, fromPeer := tracectx.Parse(r.Header.Get("traceparent"), r.Header.Get("tracestate"))
		if !fromPeer {
			tc = tracectx.NewRoot()
		}
		st := &reqState{traceID: tc.TraceID.String(), endpoint: endpointName(r.URL.Path)}
		ctx := trace.WithRecorder(r.Context(), s.rec)
		ctx = tracectx.With(ctx, tc)
		ctx = context.WithValue(ctx, reqStateKey{}, st)
		// The default run configuration is the zero value readers see on a
		// context without one, so only a set one is carried.
		if s.cfg.Run != (runcfg.Config{}) {
			ctx = runcfg.With(ctx, s.cfg.Run)
		}
		r = r.WithContext(ctx)
		rw := &respWriter{ResponseWriter: w, traceID: st.traceID}

		t0 := time.Now()
		// The handler runs under pprof labels, so every CPU-profile sample
		// taken while this request is in flight attributes to its endpoint
		// and trace ID (finq.Eval adds query_key below this).
		prof.Do(ctx, func(ctx context.Context) {
			// The request span: when the recorder is armed it mints this
			// request's own span ID (child of the caller's position, or of
			// the fresh root), and the returned context carries that
			// position so handler spans nest beneath it. The echoed
			// traceparent is exactly the position handlers inherit — a
			// downstream hop parenting on the echo attaches to this span.
			ctx, rsp := obs.StartSpanCtx(ctx, "server.request")
			if cur, ok := tracectx.From(ctx); ok {
				rw.Header().Set("traceparent", cur.Traceparent())
				if cur.State != "" {
					rw.Header().Set("tracestate", cur.State)
				}
			}
			next.ServeHTTP(rw, r.WithContext(ctx))
			rsp.End()
		}, "endpoint", st.endpoint, "trace_id", st.traceID)
		dur := time.Since(t0)

		status := rw.status
		if status == 0 {
			status = http.StatusOK
		}
		mRequests.Inc()
		family := red[st.endpoint]
		family.requests.Inc()
		if status >= 400 {
			family.errors.Inc()
		}
		// The trace ID rides along as the latency bucket's OpenMetrics
		// exemplar, so a scraped histogram links back to a concrete request.
		family.latency.ObserveExemplar(dur.Microseconds(), st.traceID)

		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("endpoint", st.endpoint),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("dur_us", dur.Microseconds()),
		}
		if st.rows > 0 {
			attrs = append(attrs, slog.Int64("rows", st.rows))
		}
		if st.stopped != "" {
			attrs = append(attrs, slog.String("stopped", st.stopped))
		}
		if st.shed {
			attrs = append(attrs, slog.Bool("shed", true))
		}
		if st.panicked {
			attrs = append(attrs, slog.Bool("panic", true))
		}
		level := slog.LevelInfo
		switch {
		case st.endpoint == "readyz" && status == http.StatusServiceUnavailable:
			// The expected answer mid-drain, polled by balancers; not an error.
			level = slog.LevelDebug
		case status >= 500:
			level = slog.LevelError
		case status >= 400:
			level = slog.LevelWarn
		case !strings.HasPrefix(r.URL.Path, "/v1/"):
			// Health probes and metric scrapes are high-frequency noise;
			// keep them out of the info-level stream.
			level = slog.LevelDebug
		}
		s.logger().LogAttrs(ctx, level, "request", attrs...)

		// Tail sampling on the /v1/ endpoints: retain the span subtree of
		// slow requests, errored requests (sheds excluded — a 429 carries no
		// evaluation, and overload would flood the reservoir), and the first
		// request seen for each query key. A request matching several
		// reasons records under the highest-priority one, but its query key
		// is marked seen either way, so the first-key budget isn't spent on
		// a key whose trace is already retained.
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			firstKey := st.queryKey != "" && s.markFirstSeen(st.queryKey)
			reason := ""
			switch {
			case dur >= s.cfg.SlowRequest:
				reason = ReasonSlow
			case status >= 400 && !st.shed:
				reason = ReasonError
			case firstKey:
				reason = ReasonFirstKey
			}
			if reason != "" {
				s.captureTail(ctx, st, status, dur, reason)
			}
		}
	})
}
