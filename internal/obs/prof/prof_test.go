package prof

import (
	"context"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestDoSetsLabels: Do attaches the goroutine labels while fn runs, and
// runs fn unlabeled when given none.
func TestDoSetsLabels(t *testing.T) {
	t.Parallel()
	var key, ep string
	var ok1, ok2 bool
	Do(context.Background(), func(ctx context.Context) {
		key, ok1 = pprof.Label(ctx, "query_key")
		ep, ok2 = pprof.Label(ctx, "endpoint")
	}, "query_key", "Q1", "endpoint", "eval")
	if !ok1 || key != "Q1" || !ok2 || ep != "eval" {
		t.Fatalf("labels not set: query_key=%q(%v) endpoint=%q(%v)", key, ok1, ep, ok2)
	}

	Do(context.Background(), func(ctx context.Context) {
		_, ok1 = pprof.Label(ctx, "query_key")
	})
	if ok1 {
		t.Fatal("labels set without any given")
	}
}

// TestDoOddKV: an odd trailing key is dropped rather than panicking.
func TestDoOddKV(t *testing.T) {
	t.Parallel()
	ran := false
	Do(context.Background(), func(ctx context.Context) {
		ran = true
		if v, ok := pprof.Label(ctx, "a"); !ok || v != "1" {
			t.Errorf("label a=%q(%v), want 1", v, ok)
		}
	}, "a", "1", "dangling")
	if !ran {
		t.Fatal("fn did not run")
	}
}

// TestQueryKeyLabel: short keys pass through, long keys truncate to a
// bounded prefix plus a hash of the full key.
func TestQueryKeyLabel(t *testing.T) {
	if got := QueryKeyLabel("short"); got != "short" {
		t.Fatalf("short key mangled: %q", got)
	}
	long := strings.Repeat("x", maxLabelLen+50)
	got := QueryKeyLabel(long)
	if len(got) > maxLabelLen || !strings.HasPrefix(got, "xxxx") || !strings.Contains(got, "#") {
		t.Fatalf("long key not truncated with hash: %q (len=%d)", got, len(got))
	}
	// Truncation is deterministic, so labeling and matching agree.
	if QueryKeyLabel(long) != got {
		t.Fatal("truncation not deterministic")
	}
}

// TestQueryKeyLabelDistinguishesLongKeys is the collision regression: two
// distinct keys sharing a prefix longer than the label bound must map to
// distinct labels — the suffix hash covers the full key, not the prefix.
func TestQueryKeyLabelDistinguishesLongKeys(t *testing.T) {
	prefix := strings.Repeat("k", maxLabelLen+10)
	a := QueryKeyLabel(prefix + "A")
	b := QueryKeyLabel(prefix + "B")
	if a == b {
		t.Fatalf("long keys with shared prefix collapsed to one label: %q", a)
	}
	if len(a) > maxLabelLen || len(b) > maxLabelLen {
		t.Fatalf("labels exceed bound: %d, %d", len(a), len(b))
	}
}

// TestAllocMeter: a metered run attributes the bytes it allocates; a
// contended run returns an inert mark.
func TestAllocMeter(t *testing.T) {
	prevStride := setAllocSampling(1)
	defer setAllocSampling(prevStride)

	m := BeginAlloc()
	sink = make([]byte, 1<<20)
	bytes, objs, sampled := m.End()
	if !sampled {
		t.Fatal("mark not sampled")
	}
	if bytes < 1<<20 {
		t.Fatalf("allocated bytes %d, want ≥ %d", bytes, 1<<20)
	}
	if objs < 1 {
		t.Fatalf("allocated objects %d, want ≥ 1", objs)
	}

	// Contention: a second mark while the first is open goes unsampled.
	m1 := BeginAlloc()
	m2 := BeginAlloc()
	if _, _, s := m2.End(); s {
		t.Fatal("contended mark reported sampled")
	}
	if _, _, s := m1.End(); !s {
		t.Fatal("first mark lost its sample to the contended one")
	}
	// Token released: metering works again.
	m3 := BeginAlloc()
	if _, _, s := m3.End(); !s {
		t.Fatal("token not released after contended End")
	}
}

// TestAllocSamplingStride: with stride N, exactly one BeginAlloc in every
// N is an active measurement.
func TestAllocSamplingStride(t *testing.T) {
	prevStride := setAllocSampling(4)
	defer setAllocSampling(prevStride)

	active := 0
	for i := 0; i < 16; i++ {
		m := BeginAlloc()
		if m.active {
			active++
		}
		m.End()
	}
	if active != 4 {
		t.Fatalf("stride 4 over 16 calls metered %d, want 4", active)
	}
}

// sink keeps the allocation in TestAllocMeter from being optimized away.
var sink []byte
