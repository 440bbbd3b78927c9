package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/apiv1"
	"repro/internal/obs/logctx"
	"repro/internal/obs/trace"
	"repro/internal/obs/tracectx"
)

// logCapture is a goroutine-safe sink for the access log under test.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *logCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *logCapture) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// lines parses the captured JSON log into one map per line, failing the
// test on any corrupt line — log integrity is part of what's under test.
func (c *logCapture) lines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, l := range strings.Split(strings.TrimSpace(c.String()), "\n") {
		if l == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("corrupt log line %q: %v", l, err)
		}
		out = append(out, rec)
	}
	return out
}

// captureLogger builds a JSON logger into a fresh capture.
func captureLogger(t *testing.T) (*logCapture, *slog.Logger) {
	t.Helper()
	cap := &logCapture{}
	logger, err := logctx.NewLogger(cap, slog.LevelDebug, "json")
	if err != nil {
		t.Fatal(err)
	}
	return cap, logger
}

// waitFor polls until cond returns true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// traceparentFor is a caller's traceparent naming the given trace ID.
func traceparentFor(traceID string) string {
	return "00-" + traceID + "-00f067aa0ba902b7-01"
}

// echoedTraceID returns the trace ID of a response's traceparent echo,
// failing the test when the header is missing or malformed.
func echoedTraceID(t *testing.T, h http.Header) string {
	t.Helper()
	tc, ok := tracectx.Parse(h.Get("traceparent"), "")
	if !ok {
		t.Fatalf("response traceparent %q does not parse", h.Get("traceparent"))
	}
	return tc.TraceID.String()
}

// TestTraceIDEchoed covers the identity contract: a caller's trace ID is
// adopted, a malformed traceparent is replaced by a fresh root, error
// responses carry the trace ID in the traceparent echo and the JSON body,
// and an X-Request-Id header is neither honored nor echoed nor logged.
func TestTraceIDEchoed(t *testing.T) {
	cap, logger := captureLogger(t)
	_, base := startServer(t, Config{Logger: logger})

	// Adopted caller trace, success path.
	const clientTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/decide",
		strings.NewReader(`{"domain": "eq", "sentence": "forall x. x = x"}`))
	req.Header.Set("traceparent", traceparentFor(clientTrace))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := echoedTraceID(t, resp.Header); got != clientTrace {
		t.Fatalf("caller's trace ID not adopted: got %q", got)
	}

	// A malformed traceparent is replaced by a fresh root, not echoed.
	req, _ = http.NewRequest(http.MethodPost, base+"/v1/decide",
		strings.NewReader(`{"domain": "eq", "sentence": "forall x. x = x"}`))
	req.Header.Set("traceparent", "00-has spaces & punctuation!")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := echoedTraceID(t, resp.Header); got == clientTrace {
		t.Fatalf("malformed traceparent should get a fresh root, got %q", got)
	}

	// Error responses carry the trace ID in the header and the JSON body.
	const errTrace = "4bf92f3577b34da6a3ce929d0e0e0002"
	req, _ = http.NewRequest(http.MethodPost, base+"/v1/decide",
		strings.NewReader(`{"domain": "nope", "sentence": "x = x"}`))
	req.Header.Set("traceparent", traceparentFor(errTrace))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400, got %d", resp.StatusCode)
	}
	if echoedTraceID(t, resp.Header) != errTrace {
		t.Fatalf("400 response misses the trace ID header: %v", resp.Header)
	}
	var body apiv1.ErrorEnvelope
	if err := json.Unmarshal(data, &body); err != nil || body.Error.TraceID != errTrace {
		t.Fatalf("400 body should quote the trace ID: %s (%v)", data, err)
	}

	// X-Request-Id names nothing: the request gets a fresh trace, the
	// response carries no X-Request-Id, and no log line quotes the value.
	req, _ = http.NewRequest(http.MethodPost, base+"/v1/decide",
		strings.NewReader(`{"domain": "eq", "sentence": "forall x. x = x"}`))
	req.Header.Set("X-Request-Id", "client-chosen")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	fresh := echoedTraceID(t, resp.Header)
	if fresh == clientTrace || fresh == errTrace {
		t.Fatalf("X-Request-Id request reused an earlier trace %q", fresh)
	}
	if got, ok := resp.Header["X-Request-Id"]; ok {
		t.Fatalf("response echoes X-Request-Id %q", got)
	}
	waitFor(t, "the X-Request-Id request's access line", func() bool {
		for _, rec := range cap.lines(t) {
			if rec["msg"] == "request" && rec["trace_id"] == fresh {
				return true
			}
		}
		return false
	})
	if strings.Contains(cap.String(), "client-chosen") {
		t.Fatalf("a log line quotes the X-Request-Id value:\n%s", cap.String())
	}
}

// TestTraceIDOnPanic500: a handler panic still produces a response with
// the trace ID echoed, the ID in the body, and panic=true in the access
// log.
func TestTraceIDOnPanic500(t *testing.T) {
	cap, logger := captureLogger(t)
	srv := New(Config{Logger: logger})
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	h := srv.instrument(srv.recovered(mux))

	const id = "4bf92f3577b34da6a3ce929d0e0e0003"
	req, _ := http.NewRequest(http.MethodGet, "/boom", nil)
	req.Header.Set("traceparent", traceparentFor(id))
	rec := newRecorder()
	h.ServeHTTP(rec, req)
	if rec.status != http.StatusInternalServerError {
		t.Fatalf("want 500, got %d", rec.status)
	}
	if echoedTraceID(t, rec.Header()) != id {
		t.Fatal("panic 500 misses the trace ID header")
	}
	var body apiv1.ErrorEnvelope
	if err := json.Unmarshal(rec.body.Bytes(), &body); err != nil || body.Error.TraceID != id {
		t.Fatalf("panic 500 body should quote the trace ID: %s", rec.body.Bytes())
	}
	if body.Error.Code != apiv1.CodeInternal {
		t.Fatalf("panic 500 code %q, want %q", body.Error.Code, apiv1.CodeInternal)
	}
	found := false
	for _, rec := range cap.lines(t) {
		if rec["trace_id"] == id && rec["panic"] == true && rec["status"] == float64(500) {
			found = true
		}
	}
	if !found {
		t.Fatalf("access log misses the panic line: %s", cap.String())
	}
}

// recorder is a minimal ResponseWriter for driving the handler directly.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

// TestTraceIDOn429Shed saturates the pool and checks the shed response
// carries the trace ID (header and body) and the access log marks
// shed=true.
func TestTraceIDOn429Shed(t *testing.T) {
	cap, logger := captureLogger(t)
	cfg := Config{Workers: 1, QueueDepth: 1, EvalTimeout: 30 * time.Second, Logger: logger}
	srv, base := startServer(t, cfg)

	// Saturate workers + queue with requests the clients cancel at the end,
	// as in TestQueueOverflow429.
	satCtx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// Cancel before waiting: the saturating requests run until their
	// clients go away, or else for the whole EvalTimeout.
	defer func() {
		cancel()
		wg.Wait()
	}()
	for i := 0; i < cfg.Workers+cfg.QueueDepth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(satCtx, http.MethodPost,
				base+"/v1/eval", strings.NewReader(slowEvalBody))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	waitFor(t, "pool saturation", func() bool {
		return srv.queued.Load() >= int64(cfg.Workers+cfg.QueueDepth)
	})

	const id = "4bf92f3577b34da6a3ce929d0e0e0004"
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/eval", strings.NewReader(slowEvalBody))
	req.Header.Set("traceparent", traceparentFor(id))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d: %s", resp.StatusCode, data)
	}
	if echoedTraceID(t, resp.Header) != id {
		t.Fatal("429 misses the trace ID header")
	}
	var body apiv1.ErrorEnvelope
	if err := json.Unmarshal(data, &body); err != nil || body.Error.TraceID != id {
		t.Fatalf("429 body should quote the trace ID: %s", data)
	}
	if body.Error.Code != apiv1.CodeOverCapacity {
		t.Fatalf("429 code %q, want %q", body.Error.Code, apiv1.CodeOverCapacity)
	}
	waitFor(t, "shed access-log line", func() bool {
		for _, rec := range cap.lines(t) {
			if rec["trace_id"] == id && rec["shed"] == true {
				return true
			}
		}
		return false
	})
}

// TestConcurrentTraceIDsUnique fires many parallel requests without
// trace headers and checks every response got a distinct minted trace ID
// and every one appears in an intact access-log line (run under -race in
// CI).
func TestConcurrentTraceIDsUnique(t *testing.T) {
	cap, logger := captureLogger(t)
	_, base := startServer(t, Config{Logger: logger})

	const n = 32
	ids := make(chan string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.DefaultClient.Post(base+"/v1/decide", "application/json",
				strings.NewReader(`{"domain": "eq", "sentence": "forall x. x = x"}`))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			tc, _ := tracectx.Parse(resp.Header.Get("traceparent"), "")
			ids <- tc.TraceID.String()
		}()
	}
	wg.Wait()
	close(ids)

	seen := map[string]bool{}
	for id := range ids {
		if id == (tracectx.TraceID{}).String() || seen[id] {
			t.Fatalf("missing or duplicate minted trace ID %q", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("got %d distinct IDs, want %d", len(seen), n)
	}
	// Every ID must land in a parseable access-log line with its fields.
	waitFor(t, "all access-log lines", func() bool {
		logged := map[string]bool{}
		for _, rec := range cap.lines(t) {
			if rec["msg"] == "request" {
				if id, ok := rec["trace_id"].(string); ok {
					logged[id] = true
				}
			}
		}
		for id := range seen {
			if !logged[id] {
				return false
			}
		}
		return true
	})
	for _, line := range strings.Split(strings.TrimSpace(cap.String()), "\n") {
		if !strings.Contains(line, `"msg":"request"`) {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("corrupt log line %q: %v", line, err)
		}
		for _, field := range []string{"endpoint", "status", "dur_us", "trace_id"} {
			if _, ok := rec[field]; !ok {
				t.Fatalf("access-log line misses %q: %v", field, rec)
			}
		}
		if n := strings.Count(line, `"trace_id":`); n != 1 {
			t.Fatalf("access-log line carries trace_id %d times: %s", n, line)
		}
	}
}

// TestReadyzDrain: /readyz flips to 503 as soon as a drain begins, while
// an in-flight evaluation still completes and /healthz stays 200.
func TestReadyzDrain(t *testing.T) {
	cfg := Config{EvalTimeout: 400 * time.Millisecond}
	srv, base := startServer(t, cfg)

	get := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/readyz") != http.StatusOK {
		t.Fatal("fresh server not ready")
	}

	// In-flight slow evaluation…
	done := make(chan struct{})
	var code int
	var body []byte
	go func() {
		defer close(done)
		code, body = post(t, http.DefaultClient, base+"/v1/eval", slowEvalBody)
	}()
	time.Sleep(50 * time.Millisecond)

	// …drain begins: readiness flips, liveness holds, listener still serves.
	srv.StartDrain()
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("/readyz should be 503 mid-drain")
	}
	if get("/healthz") != http.StatusOK {
		t.Fatal("/healthz should stay 200 mid-drain")
	}
	<-done
	if code != http.StatusOK || !strings.Contains(string(body), `"stopped":"deadline"`) {
		t.Fatalf("in-flight eval during drain: %d %s", code, body)
	}
}

// TestPrometheusExposition drives traffic, then validates /metrics as a
// text exposition: every family has HELP and TYPE, histogram buckets are
// cumulative and monotone, and the +Inf bucket equals _count.
func TestPrometheusExposition(t *testing.T) {
	_, base := startServer(t, Config{})
	post(t, http.DefaultClient, base+"/v1/decide", `{"domain": "eq", "sentence": "forall x. x = x"}`)
	post(t, http.DefaultClient, base+"/v1/eval", `{
	  "domain": "eq",
	  "state": {"relations": {"F": [["adam", "abel"]]}},
	  "formula": "exists y. F(x, y)"}`)

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	validateExposition(t, string(text))

	// The per-endpoint RED families and runtime gauges must be present.
	for _, want := range []string{
		"server_eval_requests", "server_eval_errors", "server_eval_latency_us_count",
		"server_decide_requests", "runtime_goroutines", "runtime_heap_alloc_bytes",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics misses %s", want)
		}
	}
}

// validateExposition is a strict-enough parser for the text format the
// server emits: HELP/TYPE coverage and histogram-series consistency.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	helps := map[string]bool{}
	types := map[string]string{}
	type histState struct {
		lastBucket int64
		infBucket  int64
		count      int64
		hasInf     bool
		hasCount   bool
	}
	hists := map[string]*histState{}

	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) < 2 || fields[1] == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			helps[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample line: name[{labels}] value, optionally with an OpenMetrics
		// exemplar suffix (` # {labels} value`) that 0.0.4 parsing ignores.
		if j := strings.Index(line, " # "); j >= 0 {
			line = line[:j]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		nameAndLabels, valStr := line[:i], line[i+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := nameAndLabels
		labels := ""
		if j := strings.IndexByte(nameAndLabels, '{'); j >= 0 {
			name, labels = nameAndLabels[:j], nameAndLabels[j:]
		}

		family := name
		switch {
		case strings.HasSuffix(name, "_bucket"):
			family = strings.TrimSuffix(name, "_bucket")
		case strings.HasSuffix(name, "_sum"):
			if types[strings.TrimSuffix(name, "_sum")] == "histogram" {
				family = strings.TrimSuffix(name, "_sum")
			}
		case strings.HasSuffix(name, "_count"):
			if types[strings.TrimSuffix(name, "_count")] == "histogram" {
				family = strings.TrimSuffix(name, "_count")
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("sample %q has no TYPE for family %q", line, family)
		}
		if !helps[family] && !helps[name] {
			t.Fatalf("sample %q has no HELP for family %q", line, family)
		}

		if types[family] == "histogram" {
			h := hists[family]
			if h == nil {
				h = &histState{}
				hists[family] = h
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				v := int64(val)
				if strings.Contains(labels, `le="+Inf"`) {
					h.infBucket, h.hasInf = v, true
				} else {
					if v < h.lastBucket {
						t.Fatalf("histogram %s buckets not cumulative: %d after %d (%q)",
							family, v, h.lastBucket, line)
					}
					h.lastBucket = v
				}
			case strings.HasSuffix(name, "_count"):
				h.count, h.hasCount = int64(val), true
			}
		}
	}
	if len(types) == 0 {
		t.Fatal("exposition contains no TYPE lines")
	}
	for family, h := range hists {
		if !h.hasInf || !h.hasCount {
			t.Fatalf("histogram %s misses +Inf bucket or _count", family)
		}
		if h.infBucket != h.count {
			t.Fatalf("histogram %s: +Inf bucket %d != _count %d", family, h.infBucket, h.count)
		}
		if h.lastBucket > h.infBucket {
			t.Fatalf("histogram %s: finite bucket %d exceeds +Inf %d", family, h.lastBucket, h.infBucket)
		}
	}
}

// TestSlowRequestTraceableBySingleID is the acceptance check: one slow
// request, named by the caller's traceparent, its one trace ID found in
// every place — the access log line, the obs spans' flight-recorder
// events, the slow-query capture and its listing, and the latency
// exemplar.
func TestSlowRequestTraceableBySingleID(t *testing.T) {
	trace.Arm(0)
	defer trace.Disarm()

	cap, logger := captureLogger(t)
	cfg := Config{
		EvalTimeout: 150 * time.Millisecond,
		SlowRequest: time.Microsecond, // everything is "slow" for the test
		Logger:      logger,
	}
	_, base := startServer(t, cfg)

	const id = "4bf92f3577b34da6a3ce929d0e0e0005"
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/eval", strings.NewReader(slowEvalBody))
	req.Header.Set("traceparent", traceparentFor(id))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"stopped":"deadline"`) {
		t.Fatalf("slow eval: %d %s", resp.StatusCode, data)
	}

	// 1. The access log line carries the trace ID, exactly once (the
	// context-injected trace_id attribute).
	waitFor(t, "access log line", func() bool {
		for _, rec := range cap.lines(t) {
			if rec["msg"] == "request" && rec["trace_id"] == id {
				return true
			}
		}
		return false
	})
	for _, line := range strings.Split(cap.String(), "\n") {
		if strings.Contains(line, `"msg":"request"`) && strings.Contains(line, id) {
			if n := strings.Count(line, id); n != 1 {
				t.Fatalf("access line carries the trace ID %d times: %s", n, line)
			}
		}
	}

	// 2 + 3. The obs spans' trace events carry the trace ID: the server
	// endpoint span, the finq.Eval root span, and the evaluation-core span
	// all appear, each with begin and end phases.
	events := trace.Events()
	phases := map[string]map[trace.Phase]bool{}
	for _, e := range events {
		if e.Trace != id {
			continue
		}
		if phases[e.Name] == nil {
			phases[e.Name] = map[trace.Phase]bool{}
		}
		phases[e.Name][e.Phase] = true
	}
	for _, span := range []string{"server.eval", "finq.eval", "query.enumerate"} {
		if !phases[span][trace.PhaseBegin] || !phases[span][trace.PhaseEnd] {
			t.Errorf("span %s: begin/end trace events with trace=%s not found (have %v)",
				span, id, phases[span])
		}
	}

	// 4. The slow-query capture is retrievable by the same trace ID and
	// holds the span subtree.
	waitFor(t, "slow capture", func() bool {
		resp, err := http.Get(base + "/debug/slow?id=" + id)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusOK
	})
	resp, err = http.Get(base + "/debug/slow?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	capData, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sc TailCapture
	if err := json.Unmarshal(capData, &sc); err != nil {
		t.Fatalf("slow capture is not JSON: %v in %s", err, capData)
	}
	if sc.TraceID != id || sc.Endpoint != "eval" || sc.Stopped != "deadline" {
		t.Fatalf("slow capture fields: %+v", sc)
	}
	if sc.Reason != ReasonSlow {
		t.Fatalf("slow capture reason: want %q, got %q", ReasonSlow, sc.Reason)
	}
	if len(sc.Events) == 0 {
		t.Fatal("slow capture holds no trace events")
	}
	foundEvalEvent := false
	for _, e := range sc.Events {
		if e.Name == "finq.eval" {
			foundEvalEvent = true
		}
	}
	if !foundEvalEvent {
		t.Fatalf("slow capture subtree misses the finq.eval span: %s", capData)
	}

	// 5. /debug/slow without an id lists the capture: one line per held
	// sample, enough to pick an id to drill into.
	resp, err = http.Get(base + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	listData, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var listing []TailListing
	if err := json.Unmarshal(listData, &listing); err != nil {
		t.Fatalf("listing is not JSON: %v in %s", err, listData)
	}
	foundListing := false
	for _, l := range listing {
		if l.TraceID == id && l.Endpoint == "eval" && l.Reason == ReasonSlow {
			foundListing = true
		}
	}
	if !foundListing {
		t.Fatalf("listing misses the slow request %q: %s", id, listData)
	}

	// 6. The Prometheus exposition links the metric to the trace: the eval
	// latency bucket the request fell into carries an OpenMetrics exemplar
	// with the same trace id, so `/metrics → /debug/slow?id=` is one hop.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expoData, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exemplarRE := regexp.MustCompile(
		`(?m)^server_eval_latency_us_bucket\{le="[0-9]+"\} \d+ # \{trace_id="` + id + `"\} \d+$`)
	if !exemplarRE.Match(expoData) {
		t.Fatalf("no exemplar with trace_id=%q on any server_eval_latency_us bucket:\n%s",
			id, grepLines(expoData, "server_eval_latency_us_bucket"))
	}

	// Unknown IDs 404.
	resp, err = http.Get(base + "/debug/slow?id=no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown slow id: want 404, got %d", resp.StatusCode)
	}
}

// grepLines filters an exposition body down to the lines containing a
// substring, for readable failure messages.
func grepLines(data []byte, substr string) string {
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestTailSamplerReasons drives the two non-slow capture paths: errored
// requests and the first request of a never-before-seen query, with
// SlowRequest set high enough that neither is captured as slow.
func TestTailSamplerReasons(t *testing.T) {
	cfg := Config{
		EvalTimeout: 5 * time.Second,
		SlowRequest: time.Hour, // nothing is slow in this test
	}
	_, base := startServer(t, cfg)

	// A fresh query: captured once with reason first-key, and only once.
	const evalBody = `{
	  "domain": "eq",
	  "state": {"relations": {"G": [["a", "b"]]}},
	  "formula": "exists y. G(x, y)"}`
	firstIDs := []string{"4bf92f3577b34da6a3ce929d0e0e0f00", "4bf92f3577b34da6a3ce929d0e0e0f01"}
	for i, id := range firstIDs {
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/eval", strings.NewReader(evalBody))
		req.Header.Set("traceparent", traceparentFor(id))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval %d: status %d", i, resp.StatusCode)
		}
	}

	// A parse error: captured with reason error.
	const errorID = "4bf92f3577b34da6a3ce929d0e0e0e00"
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/eval",
		strings.NewReader(`{"domain": "eq", "formula": "exists y. ("}`))
	req.Header.Set("traceparent", traceparentFor(errorID))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad formula: want 400, got %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	listData, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var listing []TailListing
	if err := json.Unmarshal(listData, &listing); err != nil {
		t.Fatalf("listing is not JSON: %v in %s", err, listData)
	}
	reasons := map[string]string{}
	for _, l := range listing {
		reasons[l.TraceID] = l.Reason
	}
	if reasons[firstIDs[0]] != ReasonFirstKey {
		t.Errorf("first eval of a fresh query: want reason %q, got %q (listing %s)",
			ReasonFirstKey, reasons[firstIDs[0]], listData)
	}
	if r, ok := reasons[firstIDs[1]]; ok {
		t.Errorf("second eval of the same query captured again (reason %q): %s", r, listData)
	}
	if reasons[errorID] != ReasonError {
		t.Errorf("errored request: want reason %q, got %q (listing %s)",
			ReasonError, reasons[errorID], listData)
	}

	// The first-key capture carries the query's canonical key so it can be
	// matched against /v1/stats/queries.
	resp, err = http.Get(base + "/debug/slow?id=" + firstIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	capData, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var tc TailCapture
	if err := json.Unmarshal(capData, &tc); err != nil {
		t.Fatalf("capture is not JSON: %v in %s", err, capData)
	}
	if tc.QueryKey == "" {
		t.Fatalf("first-key capture misses the query key: %s", capData)
	}
}
