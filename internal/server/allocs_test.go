package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs/logctx"
	"repro/internal/obs/qstats"
)

// pointAllocCeiling bounds the objects one point-shaped request allocates
// end to end: measured at 395 with Go 1.24.0. Go 1.22, which CI runs, was
// not measured, so the ceiling leaves a fifth more. Lower it when a
// change earns it.
const pointAllocCeiling = 485

// TestPointRequestAllocs is the served path's allocation ceiling: one
// safe-range request shaped like the benchmark's point workload, R(x) &
// lt(x, k) with a fresh k over a 16-value R, through the full handler
// chain with the access log on and the per-query stats registry full, so
// every request also creates a stats entry and evicts one.
func TestPointRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	logger, err := logctx.NewLogger(io.Discard, slog.LevelInfo, "text")
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{Logger: logger}).Handler()
	reg := qstats.Default()
	for i := 0; reg.Evictions() == 0; i++ {
		reg.Record(qstats.Sample{Key: fmt.Sprintf("filler-%d", i), Domain: "presburger", Mode: "active",
			Query: fmt.Sprintf("R(x) & lt(x, %d)", i), LatencyUS: 50, Rows: 3, Plan: "algebra"})
	}
	rows := make([]string, 16)
	for i := range rows {
		rows[i] = fmt.Sprintf(`["%d"]`, 7919*(i+1)%100003)
	}
	state := `{"relations": {"R": [` + strings.Join(rows, ", ") + `]}}`
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		k++
		body := fmt.Sprintf(`{"domain": "presburger", "state": %s, "formula": "R(x) & lt(x, %d)"}`, state, 50000+k)
		req, err := http.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		h.ServeHTTP(rec, req)
		if rec.status != http.StatusOK {
			t.Fatalf("eval: %d %s", rec.status, rec.body.Bytes())
		}
	})
	t.Logf("%.1f allocations per point request", allocs)
	if allocs > pointAllocCeiling {
		t.Fatalf("%.1f allocations per point request, ceiling %d", allocs, pointAllocCeiling)
	}
}

// safetyAllocCeiling bounds the objects one relative-safety request
// allocates end to end: measured at 191 with Go 1.24.0, with the same
// 1.23 ratio as pointAllocCeiling. Lower it when a change earns it.
const safetyAllocCeiling = 234

// TestSafetyRequestAllocs is the safety path's allocation ceiling: one
// request shaped like the benchmark's safety workload, exists y. (R(y) &
// lt(x, add(y, k))) with a fresh k over a four-value R, through the full
// handler chain. The automaton of the query's translation answers it.
func TestSafetyRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	logger, err := logctx.NewLogger(io.Discard, slog.LevelInfo, "text")
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{Logger: logger}).Handler()
	const state = `{"relations": {"R": [["5"], ["17"], ["38"], ["61"]]}}`
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		k = k%1000 + 1
		body := fmt.Sprintf(`{"domain": "presburger", "state": %s, "formula": "exists y. (R(y) & lt(x, add(y, %d)))"}`, state, k)
		req, err := http.NewRequest(http.MethodPost, "/v1/safety", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		h.ServeHTTP(rec, req)
		if rec.status != http.StatusOK || !strings.Contains(rec.body.String(), `"holds"`) {
			t.Fatalf("safety: %d %s", rec.status, rec.body.Bytes())
		}
	})
	t.Logf("%.1f allocations per safety request", allocs)
	if allocs > safetyAllocCeiling {
		t.Fatalf("%.1f allocations per safety request, ceiling %d", allocs, safetyAllocCeiling)
	}
}
