package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/apiv1"
	"repro/internal/obs/prof"
	"repro/internal/obs/tracectx"
)

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("bad JSON from %s: %v in %s", url, err, data)
		}
	}
	return resp.StatusCode
}

// TestVersionEndpoint: GET /v1/version serves the build identity.
func TestVersionEndpoint(t *testing.T) {
	_, base := startServer(t, Config{})
	var v apiv1.VersionResponse
	if code := getJSON(t, base+"/v1/version", &v); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if v.Version == "" || v.GoVersion == "" || v.Line == "" {
		t.Fatalf("incomplete version: %+v", v)
	}
	if !strings.HasPrefix(v.Line, "finq ") {
		t.Fatalf("version line %q", v.Line)
	}
	resp, err := http.Post(base+"/v1/version", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/version: status %d", resp.StatusCode)
	}
}

// TestSLOEndpointDisabled: with no objectives configured, /v1/slo answers
// {"enabled": false} rather than erroring.
func TestSLOEndpointDisabled(t *testing.T) {
	_, base := startServer(t, Config{})
	var v SLOResponse
	if code := getJSON(t, base+"/v1/slo", &v); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if v.Enabled || len(v.Endpoints) != 0 {
		t.Fatalf("disabled SLO reported: %+v", v)
	}
}

// TestSLOEndpointEnabled: SLOLatency constructs one objective per pooled
// endpoint and /v1/slo reports the engine's windows and burn states.
func TestSLOEndpointEnabled(t *testing.T) {
	_, base := startServer(t, Config{
		SLOLatency: 250 * time.Millisecond,
		SLOTick:    time.Hour, // only the immediate Start tick runs
	})
	var v SLOResponse
	if code := getJSON(t, base+"/v1/slo", &v); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !v.Enabled || v.TripBurn <= 0 || v.TickMS <= 0 {
		t.Fatalf("SLO header wrong: %+v", v)
	}
	if len(v.Endpoints) != len(sloEndpoints) {
		t.Fatalf("got %d endpoints, want %d: %+v", len(v.Endpoints), len(sloEndpoints), v)
	}
	for _, ep := range v.Endpoints {
		if ep.Latency == nil || ep.Errors == nil {
			t.Fatalf("endpoint %s missing dimensions: %+v", ep.Endpoint, ep)
		}
		if ep.Latency.Target != 0.99 || ep.Errors.Target != 0.999 {
			t.Fatalf("endpoint %s default targets wrong: %+v", ep.Endpoint, ep)
		}
		// 250ms rounds up to the enclosing power-of-two bucket bound.
		if ep.Latency.EffectiveUS < ep.Latency.ThresholdUS {
			t.Fatalf("effective threshold below configured: %+v", ep.Latency)
		}
	}
}

// TestManualProfileCapture: POST /debug/profiles/capture records a
// CPU+heap pair, listable and downloadable by id.
func TestManualProfileCapture(t *testing.T) {
	_, base := startServer(t, Config{ProfileCPUDuration: 60 * time.Millisecond})

	var listing ProfilesResponse
	if code := getJSON(t, base+"/debug/profiles", &listing); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if !listing.Armed || len(listing.Captures) != 0 {
		t.Fatalf("fresh store: %+v", listing)
	}

	resp, err := http.Post(base+"/debug/profiles/capture?dur_ms=60", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capture status %d: %s", resp.StatusCode, data)
	}
	var c prof.Capture
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("capture response: %v in %s", err, data)
	}
	if c.ID == "" || c.Reason != "manual" || c.CPUBytes <= 0 || c.HeapBytes <= 0 {
		t.Fatalf("capture metadata: %+v", c)
	}
	// The manual capture records the POSTing request's own trace ID.
	echo, ok := tracectx.Parse(resp.Header.Get("traceparent"), "")
	if !ok || c.TraceID != echo.TraceID.String() {
		t.Fatalf("manual capture trace id %q, response traceparent %q", c.TraceID, resp.Header.Get("traceparent"))
	}

	if code := getJSON(t, base+"/debug/profiles", &listing); code != http.StatusOK || len(listing.Captures) != 1 {
		t.Fatalf("after capture: %d %+v", code, listing)
	}
	var got prof.Capture
	if code := getJSON(t, base+"/debug/profiles?id="+c.ID, &got); code != http.StatusOK || got.ID != c.ID {
		t.Fatalf("get by id: %d %+v", code, got)
	}

	for _, kind := range []string{"cpu", "heap"} {
		resp, err := http.Get(base + "/debug/profiles?id=" + c.ID + "&kind=" + kind)
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(payload) == 0 {
			t.Fatalf("%s download: status %d len %d", kind, resp.StatusCode, len(payload))
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("%s content type %q", kind, ct)
		}
		if _, err := prof.SampleLabels(payload); err != nil {
			t.Fatalf("%s payload does not parse as pprof: %v", kind, err)
		}
	}

	if code := getJSON(t, base+"/debug/profiles?id=prof-9999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", code)
	}
	if code := getJSON(t, base+"/debug/profiles?id="+c.ID+"&kind=goroutine", nil); code != http.StatusBadRequest {
		t.Fatalf("bad kind: status %d", code)
	}
	resp2, err := http.Post(base+"/debug/profiles/capture?dur_ms=600000", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap duration: status %d", resp2.StatusCode)
	}
}

// TestSLOTripCaptureLoop is the acceptance test for the profile-guided
// loop: hammering a deliberately slow query trips the eval latency SLO
// burn, the trip triggers a CPU+heap capture that appears in
// GET /debug/profiles cross-linked to the tail-sampler capture and trace
// ID that evidenced it, and the downloaded CPU profile contains samples
// labeled with the query's query_key.
func TestSLOTripCaptureLoop(t *testing.T) {
	_, base := startServer(t, Config{
		Workers: 1,
		// Each request enumerates (slowEvalBody never completes on its own)
		// until this deadline, so every request is ~100ms of CPU-bound,
		// pprof-labeled evaluation answered 200 with a partial result. The
		// pace matters: every request is also a slow-request tail capture,
		// and the capture the trip cross-links must still be inside the
		// 16-slot reservoir when the test fetches it after the ~900ms
		// profile window (~10 captures accrue in that time at this rate).
		EvalTimeout: 100 * time.Millisecond,
		// Aggressive SLO so the trip happens in tens of milliseconds of
		// traffic: every hot request (well over 1ms) is "bad" against a
		// 50% target, so the burn is 2.0 ≥ 1.2.
		SLOLatency:       time.Millisecond,
		SLOLatencyTarget: 0.5,
		SLOTick:          25 * time.Millisecond,
		SLOFastWindow:    100 * time.Millisecond,
		SLOSlowWindow:    200 * time.Millisecond,
		SLOTripBurn:      1.2,
		// The capture window is long enough that the hammer keeps labeled
		// CPU work on the profiler while it runs.
		ProfileCPUDuration: 900 * time.Millisecond,
		ProfileCooldown:    time.Hour,
		// Hot requests are also slow requests, so the tail sampler retains
		// the trace the capture cross-links to.
		SlowRequest: time.Millisecond,
	})

	// Hammer the slow query until the test is done; the trip, the capture
	// window, and any fallback capture all see live labeled work.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/v1/eval", "application/json", strings.NewReader(slowEvalBody))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	// The burn trips within a few ticks; the async capture needs its 900ms
	// window after that.
	var capture prof.Capture
	waitFor(t, "SLO-triggered profile capture", func() bool {
		var listing ProfilesResponse
		if getJSON(t, base+"/debug/profiles", &listing) != http.StatusOK {
			return false
		}
		for _, c := range listing.Captures {
			if strings.HasPrefix(c.Reason, "slo:eval:") {
				capture = c
				return true
			}
		}
		return false
	})

	if capture.Endpoint != "eval" {
		t.Fatalf("capture endpoint %q: %+v", capture.Endpoint, capture)
	}
	if capture.TraceID == "" {
		t.Fatalf("capture not linked to a request: %+v", capture)
	}
	if capture.QueryKey == "" || capture.TailID == "" {
		t.Fatalf("capture not cross-linked to the tail sampler: %+v", capture)
	}
	// The tail-sampler capture it links to must exist and agree on the key.
	var tail TailCapture
	if code := getJSON(t, base+"/debug/slow?id="+capture.TailID, &tail); code != http.StatusOK {
		t.Fatalf("linked tail capture %q missing: status %d", capture.TailID, code)
	}
	if tail.QueryKey != capture.QueryKey {
		t.Fatalf("tail capture key %q != profile capture key %q", tail.QueryKey, capture.QueryKey)
	}

	// The SLO summary reports the latched trip.
	var slo SLOResponse
	if code := getJSON(t, base+"/v1/slo", &slo); code != http.StatusOK || !slo.Enabled {
		t.Fatalf("slo status: %d %+v", code, slo)
	}
	var evalStatus *prof.EndpointStatus
	for i := range slo.Endpoints {
		if slo.Endpoints[i].Endpoint == "eval" {
			evalStatus = &slo.Endpoints[i]
		}
	}
	if evalStatus == nil || evalStatus.Latency == nil || evalStatus.Latency.LastTripUnixMS == 0 {
		t.Fatalf("eval latency trip not reported: %+v", slo)
	}

	// The downloaded CPU profile must carry samples labeled with the
	// query's key. Sampling is statistical, so if the triggered capture's
	// window missed (possible on a loaded CI box), fall back to manual
	// captures while the hammer is still running.
	wantLabel := prof.QueryKeyLabel(capture.QueryKey)
	countLabeled := func(id string) int {
		resp, err := http.Get(base + "/debug/profiles?id=" + id + "&kind=cpu")
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cpu download for %s: status %d", id, resp.StatusCode)
		}
		n, err := prof.HasLabel(payload, "query_key", wantLabel)
		if err != nil {
			t.Fatalf("parsing cpu profile %s: %v", id, err)
		}
		return n
	}
	labeled := countLabeled(capture.ID)
	for try := 0; labeled == 0 && try < 3; try++ {
		t.Logf("triggered capture %s had no query_key samples; manual retry %d", capture.ID, try+1)
		resp, err := http.Post(base+"/debug/profiles/capture?dur_ms=700", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue // capture in flight; try again
		}
		var c prof.Capture
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatalf("manual capture response: %v in %s", err, data)
		}
		labeled = countLabeled(c.ID)
	}
	if labeled == 0 {
		t.Fatal("no CPU samples labeled with the query's query_key in any capture")
	}
	t.Logf("capture %s: %d samples labeled query_key=%s", capture.ID, labeled, wantLabel)

}

// TestSLOEngineCountsFromRED: the engine's Source adapts the live RED
// counters — requests against the eval endpoint move the eval objective's
// counts.
func TestSLOEngineCountsFromRED(t *testing.T) {
	objectives := buildObjectives(Config{SLOLatency: time.Second, SLOLatencyTarget: 0.9, SLOErrorTarget: 0.99})
	src := sloSource(objectives)
	before := src()["eval"]

	_, base := startServer(t, Config{})
	code, data := post(t, http.DefaultClient, base+"/v1/eval", `{
	  "domain": "eq",
	  "state": {"relations": {"F": [["adam", "abel"], ["adam", "cain"]]}},
	  "formula": "exists y. F(x, y)"}`)
	if code != http.StatusOK {
		t.Fatalf("eval status %d: %s", code, data)
	}
	after := src()["eval"]
	if after.Requests <= before.Requests || after.LatCount <= before.LatCount {
		t.Fatalf("RED counts did not move: before=%+v after=%+v", before, after)
	}
	if after.LatGood < before.LatGood {
		t.Fatalf("good count went backwards: before=%+v after=%+v", before, after)
	}
}
