package deccache

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/logic"
	"repro/internal/runcfg"
)

// countingDecider decides by formula shape and counts inner invocations.
type countingDecider struct {
	mu    sync.Mutex
	calls int
	fail  bool
}

func (d *countingDecider) Decide(_ context.Context, f *logic.Formula) (bool, error) {
	d.mu.Lock()
	d.calls++
	d.mu.Unlock()
	if d.fail {
		return false, fmt.Errorf("countingDecider: forced failure")
	}
	return f.Kind == logic.FTrue || f.Kind == logic.FExists, nil
}

func (d *countingDecider) callCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls
}

func atomSentence(name string) *logic.Formula {
	return logic.Exists("x", logic.Atom(name, logic.Var("x")))
}

func TestCacheHitOnStructurallyEqualFormula(t *testing.T) {
	t.Parallel()
	inner := &countingDecider{}
	c := Wrap(inner, 16)
	f := atomSentence("P")
	v1, err := c.Decide(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	// A distinct but structurally equal formula must hit.
	v2, err := c.Decide(context.Background(), atomSentence("P"))
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("cached verdict %v differs from first %v", v2, v1)
	}
	if got := inner.callCount(); got != 1 {
		t.Errorf("inner decided %d times, want 1", got)
	}
	hits, misses, _, size := c.Stats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Errorf("stats = %d hits, %d misses, size %d; want 1, 1, 1", hits, misses, size)
	}
}

func TestCacheDistinctFormulasDistinctEntries(t *testing.T) {
	t.Parallel()
	inner := &countingDecider{}
	c := Wrap(inner, 16)
	for _, name := range []string{"P", "Q", "R"} {
		if _, err := c.Decide(context.Background(), atomSentence(name)); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.callCount(); got != 3 {
		t.Errorf("inner decided %d times, want 3", got)
	}
	if _, _, _, size := c.Stats(); size != 3 {
		t.Errorf("cache size %d, want 3", size)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	t.Parallel()
	inner := &countingDecider{}
	c := Wrap(inner, 2)
	p, q, r := atomSentence("P"), atomSentence("Q"), atomSentence("R")
	mustDecide := func(f *logic.Formula) {
		t.Helper()
		if _, err := c.Decide(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	mustDecide(p)
	mustDecide(q)
	mustDecide(p) // touch P so Q becomes least recently used
	mustDecide(r) // evicts Q
	_, _, evictions, size := c.Stats()
	if evictions != 1 || size != 2 {
		t.Fatalf("evictions=%d size=%d, want 1 and 2", evictions, size)
	}
	base := inner.callCount()
	mustDecide(p) // still cached
	if inner.callCount() != base {
		t.Errorf("P was evicted but should have been retained")
	}
	mustDecide(q) // was evicted: inner consulted again
	if inner.callCount() != base+1 {
		t.Errorf("Q should have been evicted and re-decided")
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	t.Parallel()
	inner := &countingDecider{fail: true}
	c := Wrap(inner, 16)
	f := atomSentence("P")
	for i := 0; i < 2; i++ {
		if _, err := c.Decide(context.Background(), f); err == nil {
			t.Fatal("expected forced failure")
		}
	}
	if got := inner.callCount(); got != 2 {
		t.Errorf("failing sentence decided %d times, want 2 (errors must not be cached)", got)
	}
	if _, _, _, size := c.Stats(); size != 0 {
		t.Errorf("error left an entry in the cache (size %d)", size)
	}
}

// TestCacheDisabledPassesThrough: under a context whose run
// configuration sets NoCache, every call reaches the inner decider.
func TestCacheDisabledPassesThrough(t *testing.T) {
	t.Parallel()
	inner := &countingDecider{}
	c := Wrap(inner, 16)
	f := atomSentence("P")
	ctx := runcfg.With(context.Background(), runcfg.Config{NoCache: true})
	for i := 0; i < 3; i++ {
		if _, err := c.Decide(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.callCount(); got != 3 {
		t.Errorf("disabled cache still memoized: %d inner calls, want 3", got)
	}
	if hits, misses, _, size := c.Stats(); hits != 0 || misses != 0 || size != 0 {
		t.Errorf("disabled cache recorded stats: %d/%d/%d", hits, misses, size)
	}
}

func TestCacheWrapDefaults(t *testing.T) {
	t.Parallel()
	if c := Wrap(&countingDecider{}, 0); c.capacity != DefaultCapacity {
		t.Errorf("capacity %d, want DefaultCapacity", c.capacity)
	}
	if c := Wrap(&countingDecider{}, -5); c.capacity != DefaultCapacity {
		t.Errorf("negative capacity not defaulted")
	}
}

// TestCacheConcurrent exercises the lock discipline under -race: many
// goroutines deciding an overlapping working set.
func TestCacheConcurrent(t *testing.T) {
	t.Parallel()
	inner := &countingDecider{}
	c := Wrap(inner, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("P%d", (g+i)%12) // 12 formulas through capacity 8
				want := true                         // countingDecider: FExists decides true
				got, err := c.Decide(context.Background(), atomSentence(name))
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("verdict flipped under concurrency: %v", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, evictions, size := c.Stats()
	if hits+misses != 8*200 {
		t.Errorf("hits+misses = %d, want %d", hits+misses, 8*200)
	}
	if size > 8 {
		t.Errorf("cache size %d exceeds capacity 8", size)
	}
	if evictions == 0 {
		t.Errorf("working set exceeds capacity but nothing was evicted")
	}
}

// TestDomainCountersAndTally: WrapDomain attributes hits and misses to the
// domain's counters, and the context's runcfg.Counts see the same split
// per evaluation.
func TestDomainCountersAndTally(t *testing.T) {
	inner := &countingDecider{}
	c := WrapDomain("presburger", inner, 8)
	hits0 := domainCounters["presburger"].hits.Value()
	misses0 := domainCounters["presburger"].misses.Value()

	ctx, counts := runcfg.WithCounts(context.Background())
	f := atomSentence("T")
	if _, err := c.Decide(ctx, f); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decide(ctx, f); err != nil {
		t.Fatal(err)
	}
	if h, m := counts.CacheHits.Load(), counts.CacheMisses.Load(); h != 1 || m != 1 {
		t.Fatalf("counts: hits=%d misses=%d, want 1/1", h, m)
	}
	if got := domainCounters["presburger"].hits.Value() - hits0; got != 1 {
		t.Fatalf("domain hit counter moved by %d, want 1", got)
	}
	if got := domainCounters["presburger"].misses.Value() - misses0; got != 1 {
		t.Fatalf("domain miss counter moved by %d, want 1", got)
	}
}

// TestWrapUnknownDomainFallsBack: unknown names attribute to "other"
// rather than minting unbounded metric names.
func TestWrapUnknownDomainFallsBack(t *testing.T) {
	t.Parallel()
	c := WrapDomain("not-a-domain", &countingDecider{}, 8)
	if c.counters.hits != domainCounters["other"].hits {
		t.Fatal("unknown domain must fall back to the other counters")
	}
}
