package main

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

var workloads = []string{"point", "enum-stream", "safety"}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		take := func(seed uint64) *pool {
			g, err := newGen(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			return g.take(64)
		}
		a, b, c := take(7), take(7), take(8)
		if a.text != b.text || !bytes.Equal(a.states, b.states) || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 produced different inputs on two draws", w)
		}
		if a.text == c.text && bytes.Equal(a.states, c.states) {
			t.Errorf("%s: seeds 7 and 8 produced the same inputs", w)
		}
	}
}

func span(lo, hi int64) []int64 {
	var out []int64
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// The E1 case of EXPERIMENTS.md: over R = {3, 7, 12, 20}, ∃y (R(y) ∧ x < y)
// answers 0…19.
func TestOracleE1(t *testing.T) {
	s := &state{R: []int64{3, 7, 12, 20}}
	if got, want := enumAnswer(enumTemplates[0], s, 1000), rowsAnswer(span(0, 20)); got != want {
		t.Errorf("E1 oracle = %+v, want rows 0…19 %+v", got, want)
	}
}

// One template per workload, checked against answers worked out by hand.
func TestOracleByHand(t *testing.T) {
	pt := &state{R: []int64{5, 10, 15}}
	if got, want := pointTemplates[0].want(pt, []int64{11}), rowsAnswer([]int64{5, 10}); got != want {
		t.Errorf("point R(x) & lt(x, 11) = %+v, want {5, 10}", got)
	}
	if got := pointTemplates[4].want(pt, []int64{10, 9, 3}); got != truthAnswer(true) {
		t.Errorf("point R(10) | lt(9, 3) = %+v, want true", got)
	}

	en := &state{R: []int64{6, 2, 4, 1}}
	for i, tmpl := range enumTemplates {
		if got, want := enumAnswer(tmpl, en, 1000), rowsAnswer(span(0, 6)); got != want {
			t.Errorf("enum template %d = %+v, want rows 0…5", i, got)
		}
	}

	sf := &state{R: []int64{3, 7}}
	for i, want := range []string{"holds", "fails", "holds", "fails"} {
		if got := safetyVerdict(safetyTemplates[i], sf, 5); got != verdictAnswer(want) {
			t.Errorf("safety template %d: verdict %+v, want %s", i, got, want)
		}
	}
}

func TestAnswerIgnoresRowOrder(t *testing.T) {
	if rowsAnswer([]int64{3, 1, 2}) != rowsAnswer([]int64{1, 2, 3}) {
		t.Error("row order changed the summary")
	}
	if rowsAnswer([]int64{1, 2}) == rowsAnswer([]int64{1, 2, 3}) || rowsAnswer([]int64{12}) == rowsAnswer([]int64{1, 2}) {
		t.Error("different rows share a summary")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, err := percentile(xs(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was accepted")
	}
	if v, err := percentile(xs(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1…1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Error("p50 of 19 samples was accepted")
	}
	if v, err := percentile(xs(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1…20 = %v, %v; want 10", v, err)
	}
}

// Every workload's first calls, served by an in-process finqd, match the
// oracle.
func TestFinqdAgreesWithOracle(t *testing.T) {
	setupLogging()
	for _, w := range workloads {
		g, err := newGen(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		f, err := bootFinqd(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := warm(context.Background(), f.cl, g.take(warmupCalls[w])); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}
