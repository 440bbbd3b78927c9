package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	finq "repro"
	"repro/apiv1"
	apiclient "repro/client"
	"repro/internal/obs/logctx"
	"repro/internal/obs/prof"
	"repro/internal/obs/trace"
	"repro/internal/obs/tracectx"
	"repro/internal/server"
)

// smokeChecks drives one request per endpoint against a live server. Each
// body doubles as a tiny example of the wire format.
var smokeChecks = []struct {
	name   string
	method string
	path   string
	body   string
	want   string // substring the 200 response must contain
}{
	{
		name: "domains", method: "GET", path: "/v1/domains",
		want: `"presburger"`,
	},
	{
		name: "decide", method: "POST", path: "/v1/decide",
		body: `{"domain": "presburger", "sentence": "forall x. exists y. lt(x, y)"}`,
		want: `"truth":true`,
	},
	{
		name: "qe", method: "POST", path: "/v1/qe",
		body: `{"domain": "eq", "formula": "exists y. ~(y = x)"}`,
		want: `"formula"`,
	},
	{
		name: "eval", method: "POST", path: "/v1/eval",
		body: `{"domain": "eq",
		        "state": {"relations": {"F": [["adam", "abel"], ["adam", "cain"]]}},
		        "formula": "exists y. F(x, y)"}`,
		want: `"complete":true`,
	},
	{
		name: "eval-enumerate-partial", method: "POST", path: "/v1/eval",
		body: `{"domain": "presburger",
		        "state": {"relations": {"R": [["5"]]}},
		        "formula": "~R(x)", "mode": "enumerate",
		        "budget": {"rows": 4, "probe": 4096}}`,
		want: `"stopped":"budget"`,
	},
	{
		name: "safety", method: "POST", path: "/v1/safety",
		body: `{"domain": "eq",
		        "state": {"relations": {"F": [["adam", "abel"]]}},
		        "formula": "exists y. F(x, y)"}`,
		want: `"verdict":"holds"`,
	},
	{
		name: "healthz", method: "GET", path: "/healthz",
		want: `"status":"ok"`,
	},
	{
		name: "readyz", method: "GET", path: "/readyz",
		want: `"status":"ready"`,
	},
	{
		name: "metrics", method: "GET", path: "/metrics",
		want: "server_requests",
	},
	{
		name: "metrics-red", method: "GET", path: "/metrics",
		want: "server_eval_latency_us_count",
	},
	{
		name: "metrics-runtime", method: "GET", path: "/metrics",
		want: "runtime_goroutines",
	},
	{
		name: "metrics-slo", method: "GET", path: "/metrics",
		want: "slo_eval_latency_burn_fast_milli",
	},
	{
		name: "slo", method: "GET", path: "/v1/slo",
		want: `"enabled":true`,
	},
	{
		name: "profiles-list", method: "GET", path: "/debug/profiles",
		want: `"armed":true`,
	},
}

// lockedBuffer collects the access log for the smoke's assertions while
// still echoing it to stderr; slog handlers may be driven concurrently.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	os.Stderr.Write(p)
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// runSmoke starts the service on an ephemeral port, fires the checks, and
// shuts down gracefully; any wrong status or missing substring is an
// error. Beyond the per-endpoint checks it verifies the request-scoped
// observability contract: the traceparent echo, the trace ID's presence
// in the access log, and the /readyz drain flip.
func runSmoke(cfg server.Config) error {
	logBuf := &lockedBuffer{}
	logger, err := logctx.NewLogger(logBuf, slog.LevelDebug, "json")
	if err != nil {
		return err
	}
	cfg.Logger = logger
	// Arm the flight recorder so the trace-context checks below exercise
	// span-identity minting and a non-empty /debug/trace/export.
	trace.Arm(1 << 12)
	defer trace.Disarm()
	srv := server.New(cfg)
	addr, err := srv.Start()
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	client := &http.Client{Timeout: 30 * time.Second}
	for _, c := range smokeChecks {
		var body io.Reader
		if c.body != "" {
			body = bytes.NewReader([]byte(c.body))
		}
		req, err := http.NewRequest(c.method, "http://"+addr+c.path, body)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: reading response: %w", c.name, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", c.name, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), c.want) {
			return fmt.Errorf("%s: response misses %q: %s", c.name, c.want, data)
		}
		fmt.Printf("smoke %-22s ok  %s %s\n", c.name, c.method, c.path)
	}

	// Trace-context contract: a caller's W3C traceparent is adopted — the
	// response echoes the same trace ID at the server's own span position
	// (a freshly minted child span ID, not the caller's), and the trace ID
	// names the request in the access log — and a malformed traceparent is
	// replaced by a fresh root rather than rejected.
	const smokeTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sentTC, ok := tracectx.Parse(smokeTP, "")
	if !ok {
		return fmt.Errorf("traceparent check: the smoke's own traceparent does not parse")
	}
	traceReq := func(tp string) (tracectx.TC, error) {
		req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/decide",
			strings.NewReader(`{"domain": "eq", "sentence": "forall x. x = x"}`))
		if err != nil {
			return tracectx.TC{}, err
		}
		req.Header.Set("traceparent", tp)
		resp, err := client.Do(req)
		if err != nil {
			return tracectx.TC{}, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		echo := resp.Header.Get("traceparent")
		tc, ok := tracectx.Parse(echo, "")
		if !ok {
			return tracectx.TC{}, fmt.Errorf("response traceparent %q does not parse", echo)
		}
		return tc, nil
	}
	echoTC, err := traceReq(smokeTP)
	if err != nil {
		return fmt.Errorf("traceparent check: %w", err)
	}
	if echoTC.TraceID != sentTC.TraceID {
		return fmt.Errorf("traceparent check: sent trace %s, response carries %s",
			sentTC.TraceID, echoTC.TraceID)
	}
	if echoTC.SpanID == sentTC.SpanID {
		return fmt.Errorf("traceparent check: response span position %s is the caller's, not a minted child", echoTC.SpanID)
	}
	if !strings.Contains(logBuf.String(), `"trace_id":"`+sentTC.TraceID.String()+`"`) {
		return fmt.Errorf("traceparent check: access log does not carry the trace id %s", sentTC.TraceID)
	}
	freshTC, err := traceReq("garbage-not-a-traceparent")
	if err != nil {
		return fmt.Errorf("traceparent check (malformed): %w", err)
	}
	if freshTC.TraceID == sentTC.TraceID || freshTC.TraceID.IsZero() {
		return fmt.Errorf("traceparent check (malformed): want a fresh root, got trace %s", freshTC.TraceID)
	}
	fmt.Printf("smoke %-22s ok  trace adopted with child span and in access log; malformed re-rooted\n", "traceparent")

	// Trace-export contract: the ring serves as OTLP/JSON resource spans
	// carrying the smoke's trace ID, and as a stitchable JSONL dump with
	// the metadata header line.
	for _, check := range []struct{ query, want string }{
		{"", `"resourceSpans"`},
		{"", `"` + echoTC.TraceID.String() + `"`},
		{"?format=jsonl", `"finq_trace"`},
	} {
		resp, err := client.Get("http://" + addr + "/debug/trace/export" + check.query)
		if err != nil {
			return fmt.Errorf("trace-export check: %w", err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("trace-export check (%s): status %d err %v", check.query, resp.StatusCode, err)
		}
		if !strings.Contains(string(data), check.want) {
			return fmt.Errorf("trace-export check (%s): response misses %q", check.query, check.want)
		}
	}
	fmt.Printf("smoke %-22s ok  OTLP carries the smoke trace; JSONL has the meta header\n", "trace-export")

	// From here on the typed client package drives the checks — the same
	// client cmd/finqload and the server tests use — so the smoke also
	// exercises the Go surface of the v1 API, not only the raw wire.
	sctx := context.Background()
	api := apiclient.New("http://"+addr, nil)

	// Per-query stats contract: the smoke eval above was folded into the
	// qstats registry, so /v1/stats/queries must list its canonical key
	// with a nonzero eval count.
	evalFormula, err := finq.MustLookup("eq").Parse("exists y. F(x, y)")
	if err != nil {
		return fmt.Errorf("qstats check: parsing the smoke formula: %w", err)
	}
	wantKey := evalFormula.CanonicalKey()
	stats, err := api.QueryStats(sctx, "count", 0)
	if err != nil {
		return fmt.Errorf("qstats check: %w", err)
	}
	var entries []struct {
		Key   string `json:"key"`
		Evals int64  `json:"evals"`
	}
	if err := json.Unmarshal(stats.Queries, &entries); err != nil {
		return fmt.Errorf("qstats check: decoding entries: %w", err)
	}
	found := false
	for _, q := range entries {
		if q.Key == wantKey && q.Evals >= 1 {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("qstats check: /v1/stats/queries misses the smoke query key %q with evals >= 1: %s", wantKey, stats.Queries)
	}
	fmt.Printf("smoke %-22s ok  smoke query present with evals >= 1\n", "stats-queries")

	// Version contract: /v1/version serves exactly the build line the
	// binary itself reports, so captured evidence pins to this build.
	ver, err := api.Version(sctx)
	if err != nil {
		return fmt.Errorf("version check: %w", err)
	}
	if ver.Line != finq.Version() || ver.Version == "" {
		return fmt.Errorf("version check: served %q, binary reports %q", ver.Line, finq.Version())
	}
	fmt.Printf("smoke %-22s ok  %s\n", "version", ver.Line)

	// Batch contract: one request evaluates several queries against one
	// shared state; a failing item is scoped to that item.
	batch, err := api.EvalBatch(sctx, apiv1.BatchRequest{
		Domain: "presburger",
		State:  json.RawMessage(`{"relations": {"R": [["1"], ["3"]]}}`),
		Items: []apiv1.BatchItem{
			{Formula: "R(x)"},
			{Formula: "((("},
			{Formula: "exists x. R(x)"},
		},
	})
	if err != nil {
		return fmt.Errorf("batch check: %w", err)
	}
	if len(batch.Items) != 3 || batch.Stopped != "" {
		return fmt.Errorf("batch check: unexpected shape: %+v", batch)
	}
	if r := batch.Items[0].Result; r == nil || r.Answer == nil || len(r.Answer.Rows) != 2 {
		return fmt.Errorf("batch check: item 0 should carry 2 rows: %+v", batch.Items[0])
	}
	if e := batch.Items[1].Error; e == nil || e.Code != apiv1.CodeBadRequest {
		return fmt.Errorf("batch check: bad-formula item should be a scoped %s: %+v", apiv1.CodeBadRequest, batch.Items[1])
	}
	if r := batch.Items[2].Result; r == nil || r.Answer == nil || r.Answer.Truth == nil || !*r.Answer.Truth {
		return fmt.Errorf("batch check: sentence item should be true: %+v", batch.Items[2])
	}
	fmt.Printf("smoke %-22s ok  3 items, shared state, scoped error\n", "eval-batch")

	// Streaming contract: rows of an enumeration arrive one by one in both
	// encodings, with the completion verdict on the trailer.
	for _, enc := range []string{apiv1.ContentTypeNDJSON, apiv1.ContentTypeFrames} {
		streamed := 0
		sres, err := api.EvalStream(sctx, apiv1.EvalRequest{
			Domain:  "presburger",
			Formula: "R(x)",
			State:   json.RawMessage(`{"relations": {"R": [["1"], ["3"]]}}`),
			Mode:    "enumerate",
			Budget:  &apiv1.Budget{Rows: 16, Probe: 1 << 20},
		}, enc, func(row []string) error {
			streamed++
			return nil
		})
		if err != nil {
			return fmt.Errorf("stream check (%s): %w", enc, err)
		}
		if streamed != 2 || !sres.Trailer.Complete || sres.Trailer.Rows != 2 {
			return fmt.Errorf("stream check (%s): %d rows, trailer %+v", enc, streamed, sres.Trailer)
		}
		fmt.Printf("smoke %-22s ok  2 rows then complete trailer (%s)\n", "eval-stream", enc)
	}

	// Error-envelope contract: a failing request surfaces through the
	// client as a typed APIError with a closed-set code and a trace ID.
	if _, err := api.Eval(sctx, apiv1.EvalRequest{Domain: "nope", Formula: "x = x"}); err == nil {
		return fmt.Errorf("error-envelope check: unknown domain did not fail")
	} else if ae, ok := err.(*apiclient.APIError); !ok {
		return fmt.Errorf("error-envelope check: want *apiclient.APIError, got %T: %v", err, err)
	} else if ae.Status != http.StatusBadRequest || ae.Code != apiv1.CodeBadRequest ||
		!apiv1.ValidCode(ae.Code) || ae.TraceID == "" {
		return fmt.Errorf("error-envelope check: %+v", ae)
	}
	fmt.Printf("smoke %-22s ok  typed %s with trace ID\n", "error-envelope", apiv1.CodeBadRequest)

	// Profile-capture contract: an on-demand capture completes, is listed
	// on /debug/profiles, and its CPU payload downloads by id.
	resp, err := client.Post("http://"+addr+"/debug/profiles/capture?dur_ms=150", "application/json", nil)
	if err != nil {
		return fmt.Errorf("profile capture: %w", err)
	}
	capData, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("profile capture: status %d err %v: %s", resp.StatusCode, err, capData)
	}
	var cap struct {
		ID       string `json:"id"`
		CPUBytes int    `json:"cpu_bytes"`
	}
	if err := json.Unmarshal(capData, &cap); err != nil {
		return fmt.Errorf("profile capture: decoding response: %w", err)
	}
	if cap.ID == "" || cap.CPUBytes <= 0 {
		return fmt.Errorf("profile capture: empty capture: %s", capData)
	}
	resp, err = client.Get("http://" + addr + "/debug/profiles")
	if err != nil {
		return fmt.Errorf("profile list: %w", err)
	}
	listData, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(listData), cap.ID) {
		return fmt.Errorf("profile list misses %q: %s", cap.ID, listData)
	}
	resp, err = client.Get("http://" + addr + "/debug/profiles?id=" + cap.ID + "&kind=cpu")
	if err != nil {
		return fmt.Errorf("profile download: %w", err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(payload) != cap.CPUBytes {
		return fmt.Errorf("profile download: status %d err %v, %d bytes (metadata says %d)",
			resp.StatusCode, err, len(payload), cap.CPUBytes)
	}
	if _, err := prof.SampleLabels(payload); err != nil {
		return fmt.Errorf("profile download: payload is not a pprof profile: %w", err)
	}
	fmt.Printf("smoke %-22s ok  capture %s listed and downloadable (%d bytes)\n", "profile-capture", cap.ID, cap.CPUBytes)

	// Drain contract: StartDrain flips /readyz to 503 while the listener
	// still serves (a balancer stops routing, in-flight work completes);
	// /healthz stays 200 because a draining process is alive.
	srv.StartDrain()
	for _, probe := range []struct {
		path string
		code int
	}{{"/readyz", http.StatusServiceUnavailable}, {"/healthz", http.StatusOK}} {
		resp, err := client.Get("http://" + addr + probe.path)
		if err != nil {
			return fmt.Errorf("drain %s: %w", probe.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != probe.code {
			return fmt.Errorf("mid-drain %s: want %d, got %d", probe.path, probe.code, resp.StatusCode)
		}
	}
	fmt.Printf("smoke %-22s ok  /readyz 503 mid-drain, /healthz 200\n", "drain-flip")

	fmt.Printf("smoke: %d/%d endpoints ok on %s\n", len(smokeChecks), len(smokeChecks), addr)
	return nil
}
