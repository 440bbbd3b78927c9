package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWritePrometheus renders a hand-built snapshot and checks the text
// exposition: type lines, name folding, cumulative buckets, span labels.
func TestWritePrometheus(t *testing.T) {
	s := Snapshot{
		Counters: map[string]int64{"query.eval.calls": 7},
		Gauges:   map[string]int64{"tm.tape.cells": 42},
		Histograms: map[string]HistView{
			"qe.cooper.size_in": {
				Count:   3,
				Sum:     11,
				Max:     8,
				Buckets: map[string]int64{"1": 1, "2": 0, "4": 1, "8": 1},
			},
		},
		Spans: map[string]SpanView{
			"query.eval":              {Count: 2, TotalUS: 100, MaxUS: 70},
			"qe.stage{stage=expand}":  {Count: 1, TotalUS: 5, MaxUS: 5},
			"qe.stage{stage=normals}": {Count: 4, TotalUS: 9, MaxUS: 3},
		},
	}
	var b strings.Builder
	s.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE query_eval_calls counter\nquery_eval_calls 7\n",
		"# TYPE tm_tape_cells gauge\ntm_tape_cells 42\n",
		"# TYPE qe_cooper_size_in histogram\n",
		"qe_cooper_size_in_bucket{le=\"1\"} 1\n",
		"qe_cooper_size_in_bucket{le=\"4\"} 2\n", // cumulative: 1+0+1
		"qe_cooper_size_in_bucket{le=\"8\"} 3\n",
		"qe_cooper_size_in_bucket{le=\"+Inf\"} 3\n",
		"qe_cooper_size_in_sum 11\n",
		"qe_cooper_size_in_count 3\n",
		"query_eval_spans_count 2\n",
		"query_eval_spans_total_us 100\n",
		"query_eval_spans_max_us 70\n",
		"qe_stage_spans_count{stage=\"expand\"} 1\n",
		"qe_stage_spans_count{stage=\"normals\"} 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\nfull output:\n%s", want, out)
		}
	}
	// The labeled span family declares its TYPE lines exactly once.
	if n := strings.Count(out, "# TYPE qe_stage_spans_count counter\n"); n != 1 {
		t.Errorf("qe_stage_spans_count TYPE declared %d times, want 1", n)
	}
}

// TestPromName covers the folding rules.
func TestPromName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"query.eval.calls", "query_eval_calls"},
		{"already_fine", "already_fine"},
		{"9lives", "_9lives"},
		{"a-b/c d", "a_b_c_d"},
	} {
		if got := promName(tc.in); got != tc.want {
			t.Errorf("promName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestMetricsEndpoint: the debug handler serves the exposition at /metrics
// with the Prometheus content type, fed by live registry data.
func TestMetricsEndpoint(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	c := NewCounter("promtest.hits")
	c.Inc()
	rr := httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics: status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want text/plain; version=0.0.4", ct)
	}
	if !strings.Contains(rr.Body.String(), "promtest_hits 1") {
		t.Errorf("exposition missing promtest_hits 1:\n%s", rr.Body.String())
	}
}

// TestWritePrometheusExemplars checks the OpenMetrics exemplar suffix:
// emitted on the finite bucket that carries one, absent from empty
// buckets, +Inf, sum, and count lines.
func TestWritePrometheusExemplars(t *testing.T) {
	s := Snapshot{
		Histograms: map[string]HistView{
			"server.eval.latency_us": {
				Count:   2,
				Sum:     10,
				Max:     8,
				Buckets: map[string]int64{"2": 1, "8": 1},
				Exemplars: map[string]Exemplar{
					"8": {TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", Value: 7},
				},
			},
		},
	}
	var b strings.Builder
	s.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "server_eval_latency_us_bucket{le=\"8\"} 2 # {trace_id=\"4bf92f3577b34da6a3ce929d0e0e4736\"} 7\n") {
		t.Errorf("exemplar line missing:\n%s", out)
	}
	for _, plain := range []string{
		"server_eval_latency_us_bucket{le=\"2\"} 1\n",
		"server_eval_latency_us_bucket{le=\"+Inf\"} 2\n",
		"server_eval_latency_us_sum 10\n",
		"server_eval_latency_us_count 2\n",
	} {
		if !strings.Contains(out, plain) {
			t.Errorf("exposition missing %q\nfull output:\n%s", plain, out)
		}
	}
	if strings.Contains(out, "+Inf\"} 2 #") {
		t.Errorf("+Inf bucket must not carry an exemplar:\n%s", out)
	}
}
