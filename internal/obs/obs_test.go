package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer drives counters, gauges, histograms, and spans from
// many goroutines at once; run under -race this is the data-race proof,
// and the final counts must be exact (atomics lose nothing).
func TestConcurrentHammer(t *testing.T) {
	SetEnabled(true)
	c := NewCounter("test.hammer.counter")
	g := NewGauge("test.hammer.gauge")
	h := NewHistogram("test.hammer.hist")
	const workers = 16
	const perWorker = 2000
	start := c.Value()
	hStart := h.Count()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i))
				sp := StartSpan("test.hammer.span")
				sp.Child("inner").End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value() - start; got != workers*perWorker {
		t.Errorf("counter: got %d, want %d", got, workers*perWorker)
	}
	if got := h.Count() - hStart; got != workers*perWorker {
		t.Errorf("histogram count: got %d, want %d", got, workers*perWorker)
	}
	if v := g.Value(); v < 0 || v >= perWorker {
		t.Errorf("gauge: got %d, want a value some worker set (0..%d)", v, perWorker-1)
	}
	snap := Take()
	sv, ok := snap.Spans["test.hammer.span"]
	if !ok {
		t.Fatal("span missing from snapshot")
	}
	if sv.Count < workers*perWorker {
		t.Errorf("span count: got %d, want ≥ %d", sv.Count, workers*perWorker)
	}
	if sv.Open != 0 {
		t.Errorf("span open: got %d, want 0", sv.Open)
	}
}

// TestSnapshotDeterminism: with no metric activity in between, two
// snapshots marshal to identical bytes (maps marshal with sorted keys).
func TestSnapshotDeterminism(t *testing.T) {
	SetEnabled(true)
	NewCounter("test.det.a").Add(3)
	NewCounter("test.det.b").Add(7)
	NewHistogram("test.det.h").Observe(5)
	NewHistogram("test.det.h").Observe(100)
	a := Take().JSON()
	b := Take().JSON()
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ:\n%s\n---\n%s", a, b)
	}
	var decoded Snapshot
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if decoded.Counters["test.det.a"] != 3 || decoded.Counters["test.det.b"] != 7 {
		t.Errorf("counter values lost: %v", decoded.Counters)
	}
	h := decoded.Histograms["test.det.h"]
	if h.Count != 2 || h.Sum != 105 || h.Max != 100 {
		t.Errorf("histogram view wrong: %+v", h)
	}
	if decoded.Build.GoVersion == "" {
		t.Error("snapshot misses build info")
	}
}

// TestToggle: with observation off, nothing records, and recording calls
// are safe (spans are nil but all methods tolerate that).
func TestToggle(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	c := NewCounter("test.toggle.counter")
	before := c.Value()
	c.Add(10)
	NewGauge("test.toggle.gauge").Set(4)
	NewHistogram("test.toggle.hist").Observe(9)
	sp := StartSpan("test.toggle.span")
	if sp != nil {
		t.Error("StartSpan should return nil when disabled")
	}
	sp.Child("inner").End()
	sp.End()
	if c.Value() != before {
		t.Errorf("counter recorded while disabled: %d", c.Value()-before)
	}
	if NewGauge("test.toggle.gauge").Value() != 0 {
		t.Error("gauge recorded while disabled")
	}
	if NewHistogram("test.toggle.hist").Count() != 0 {
		t.Error("histogram recorded while disabled")
	}
	snap := Take()
	if snap.Enabled {
		t.Error("snapshot should report disabled")
	}
}

// TestHistogramBuckets checks the power-of-two bucketing boundaries.
func TestHistogramBuckets(t *testing.T) {
	SetEnabled(true)
	h := NewHistogram("test.buckets")
	for _, v := range []int64{0, 1, 2, 3, 4, 1023, 1024} {
		h.Observe(v)
	}
	view := h.view()
	want := map[string]int64{
		"0":    1, // 0
		"1":    1, // 1
		"3":    2, // 2, 3
		"7":    1, // 4
		"1023": 1, // 1023
		"2047": 1, // 1024
	}
	for k, n := range want {
		if view.Buckets[k] != n {
			t.Errorf("bucket %s: got %d, want %d (all: %v)", k, view.Buckets[k], n, view.Buckets)
		}
	}
	if view.Count != 7 || view.Max != 1024 {
		t.Errorf("count/max wrong: %+v", view)
	}
}

// TestBucketUpperCountUnder checks the SLO helpers: BucketUpper rounds a
// threshold up to its bucket's inclusive bound, and CountUnder counts the
// observations at or below that bound.
func TestBucketUpperCountUnder(t *testing.T) {
	for _, tc := range []struct{ v, want int64 }{
		{-5, 0}, {0, 0}, {1, 1}, {2, 3}, {3, 3}, {4, 7},
		{1000, 1023}, {1023, 1023}, {1024, 2047},
		{int64(1) << 62, 1<<63 - 1},
	} {
		if got := BucketUpper(tc.v); got != tc.want {
			t.Errorf("BucketUpper(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	SetEnabled(true)
	h := NewHistogram("test.countunder")
	for _, v := range []int64{0, 1, 3, 500, 1023, 1024, 5000} {
		h.Observe(v)
	}
	for _, tc := range []struct{ v, want int64 }{
		{0, 1},    // just the non-positive bucket
		{1, 2},    // + value 1
		{3, 3},    // + value 3
		{1000, 5}, // + 500 and 1023 (≤ 1023 bound)
		{1024, 6}, // + 1024
		{1 << 40, 7},
	} {
		if got := h.CountUnder(tc.v); got != tc.want {
			t.Errorf("CountUnder(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestSpanLabels: labels fold into the aggregation key.
func TestSpanLabels(t *testing.T) {
	SetEnabled(true)
	sp := StartSpan("test.labels", "domain=eq")
	sp.End()
	snap := Take()
	if snap.Spans["test.labels{domain=eq}"].Count != 1 {
		t.Errorf("labeled span missing: %v", snap.Spans)
	}
}

// TestReset zeroes values but keeps registration.
func TestReset(t *testing.T) {
	SetEnabled(true)
	c := NewCounter("test.reset.counter")
	c.Add(5)
	Reset()
	if c.Value() != 0 {
		t.Errorf("counter not reset: %d", c.Value())
	}
	if _, ok := Take().Counters["test.reset.counter"]; !ok {
		t.Error("counter unregistered by Reset")
	}
}

// TestServeDebug: the debug server answers /debug/obs with the snapshot
// and /debug/pprof/ with the profile index.
func TestServeDebug(t *testing.T) {
	SetEnabled(true)
	NewCounter("test.debug.counter").Inc()
	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "test.debug.counter") {
		t.Errorf("/debug/obs misses metrics: %s", body)
	}
	resp, err = client.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
	resp, err = client.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"obs"`) {
		t.Errorf("/debug/vars misses the obs variable")
	}
}

// TestHistogramExemplars: ObserveExemplar keeps the most recent trace id
// per bucket, view() exports it, and Reset clears it.
func TestHistogramExemplars(t *testing.T) {
	SetEnabled(true)
	h := NewHistogram("test.exemplar.hist")
	h.ObserveExemplar(5, "first")
	h.ObserveExemplar(6, "second") // same bucket: last writer wins
	h.ObserveExemplar(100, "")     // empty id: plain observation
	i := BucketIndex(5)
	ex := h.ExemplarFor(i)
	if ex == nil || ex.TraceID != "second" || ex.Value != 6 {
		t.Fatalf("bucket %d exemplar: %+v", i, ex)
	}
	if ex := h.ExemplarFor(BucketIndex(100)); ex != nil {
		t.Fatalf("empty trace id must not record an exemplar, got %+v", ex)
	}
	if h.ExemplarFor(-1) != nil || h.ExemplarFor(NumBuckets) != nil {
		t.Fatal("out-of-range ExemplarFor must be nil")
	}

	hv, ok := Take().Histograms["test.exemplar.hist"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	got, ok := hv.Exemplars[BucketLabel(i)]
	if !ok || got.TraceID != "second" {
		t.Fatalf("snapshot exemplars: %+v", hv.Exemplars)
	}

	Reset()
	if h.ExemplarFor(i) != nil {
		t.Fatal("Reset must clear exemplars")
	}
}
