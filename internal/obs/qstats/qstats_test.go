package qstats

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/obs"
)

func sampleFor(key string, latUS int64) Sample {
	return Sample{
		Key: key, Domain: "eq", Mode: "active", Query: "Q(" + key + ")",
		LatencyUS: latUS, Rows: 2, CacheHits: 3, CacheMisses: 1,
		Nodes: []NodeSample{
			{Path: "0", Op: "∃y", Evals: 8, True: 2, Range: 8},
			{Path: "0.0", Op: "F(x, y)", Evals: 8, True: 2},
		},
	}
}

func TestRecordAggregates(t *testing.T) {
	r := New(0)
	r.Record(sampleFor("k1", 100))
	r.Record(sampleFor("k1", 300))
	r.Record(Sample{Key: "k1", Stopped: "budget", LatencyUS: 50})

	snap := r.Take()
	if len(snap.Entries) != 1 {
		t.Fatalf("entries: want 1, got %d", len(snap.Entries))
	}
	e := snap.Entries[0]
	if e.Key != "k1" || e.Evals != 3 || e.Rows != 4 {
		t.Fatalf("entry: %+v", e)
	}
	if e.Latency.Count != 3 || e.Latency.Sum != 450 || e.Latency.Max != 300 {
		t.Fatalf("latency: %+v", e.Latency)
	}
	if e.Stopped["complete"] != 2 || e.Stopped["budget"] != 1 {
		t.Fatalf("stopped: %v", e.Stopped)
	}
	if e.CacheHits != 6 || e.CacheMisses != 2 {
		t.Fatalf("cache: hits=%d misses=%d", e.CacheHits, e.CacheMisses)
	}
	// Root selectivity comes from the profile root: 4 true of 16 evals.
	if e.Selectivity != 0.25 {
		t.Fatalf("selectivity: want 0.25, got %v", e.Selectivity)
	}
	if len(e.Nodes) != 2 || e.Nodes[0].Path != "0" || e.Nodes[1].Path != "0.0" {
		t.Fatalf("nodes: %+v", e.Nodes)
	}
	root := e.Nodes[0]
	if root.Evals != 16 || root.True != 4 || root.RangeMin != 8 || root.RangeMax != 8 || root.RangeMean != 8 {
		t.Fatalf("root node: %+v", root)
	}
}

// TestMergeInvariants checks the aggregate invariants the snapshot
// promises: per-node True <= Evals, the latency histogram's bucket counts
// sum to its count, and the count equals the eval count (one latency
// observation per recorded eval).
func TestMergeInvariants(t *testing.T) {
	r := New(0)
	for i := 0; i < 200; i++ {
		s := sampleFor(fmt.Sprintf("k%d", i%7), int64(i*13%4096))
		s.Nodes[0].True = int64(i % 3)
		r.Record(s)
	}
	for _, e := range r.Take().Entries {
		if e.Latency.Count != e.Evals {
			t.Fatalf("%s: latency count %d != evals %d", e.Key, e.Latency.Count, e.Evals)
		}
		var bucketSum int64
		for _, n := range e.Latency.Buckets {
			bucketSum += n
		}
		if bucketSum != e.Latency.Count {
			t.Fatalf("%s: buckets sum %d != count %d", e.Key, bucketSum, e.Latency.Count)
		}
		for _, n := range e.Nodes {
			if n.True > n.Evals {
				t.Fatalf("%s node %s: true %d > evals %d", e.Key, n.Path, n.True, n.Evals)
			}
			if n.Selectivity < 0 || n.Selectivity > 1 {
				t.Fatalf("%s node %s: selectivity %v out of range", e.Key, n.Path, n.Selectivity)
			}
		}
	}
}

// TestAllocDimension: sampled allocation deltas aggregate, unsampled runs
// contribute nothing, the mean divides by the sampled count only, and the
// allocs TopK order and import merge see the dimension.
func TestAllocDimension(t *testing.T) {
	r := New(0)
	r.Record(Sample{Key: "ka", LatencyUS: 10, AllocBytes: 4096, AllocObjects: 10, AllocSampled: true})
	r.Record(Sample{Key: "ka", LatencyUS: 10, AllocBytes: 2048, AllocObjects: 6, AllocSampled: true})
	// An unsampled (concurrent) run: alloc numbers must be ignored.
	r.Record(Sample{Key: "ka", LatencyUS: 10, AllocBytes: 999999, AllocObjects: 999})
	r.Record(Sample{Key: "kb", LatencyUS: 10, AllocBytes: 100, AllocObjects: 1, AllocSampled: true})

	snap := r.Take()
	var ka, kb EntryView
	for _, e := range snap.Entries {
		switch e.Key {
		case "ka":
			ka = e
		case "kb":
			kb = e
		}
	}
	if ka.AllocBytes != 6144 || ka.AllocObjects != 16 || ka.AllocSamples != 2 {
		t.Fatalf("ka alloc aggregates: %+v", ka)
	}
	if ka.MeanAllocBytes != 3072 {
		t.Fatalf("ka mean alloc: %v, want 3072", ka.MeanAllocBytes)
	}
	if kb.AllocBytes != 100 || kb.AllocSamples != 1 {
		t.Fatalf("kb alloc aggregates: %+v", kb)
	}

	byAllocs, err := r.TopK(ByAllocs, 2)
	if err != nil || len(byAllocs) != 2 || byAllocs[0].Key != "ka" {
		t.Fatalf("by allocs: %v %+v", err, byAllocs)
	}

	// Import merges the dimension losslessly.
	r2 := New(0)
	r2.Import(snap)
	r2.Import(snap)
	e2, err := r2.TopK(ByAllocs, 1)
	if err != nil || e2[0].AllocBytes != 12288 || e2[0].AllocSamples != 4 {
		t.Fatalf("imported alloc aggregates: %v %+v", err, e2)
	}
	if e2[0].MeanAllocBytes != 3072 {
		t.Fatalf("imported mean alloc: %v", e2[0].MeanAllocBytes)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New(0)
		for i := 0; i < 20; i++ {
			r.Record(sampleFor(fmt.Sprintf("k%d", i), int64(i*100)))
		}
		return r
	}
	a, b := build().JSON(), build().JSON()
	if !bytes.Equal(a, b) {
		t.Fatal("identical record sequences produced different snapshots")
	}
}

func TestTopKOrders(t *testing.T) {
	r := New(0)
	// k0: slow and selective; k1: fast, frequent; k2: unselective.
	r.Record(Sample{Key: "k0", LatencyUS: 1000, Nodes: []NodeSample{{Path: "0", Op: "∃", Evals: 10, True: 9}}})
	for i := 0; i < 5; i++ {
		r.Record(Sample{Key: "k1", LatencyUS: 10, Rows: 2})
	}
	r.Record(Sample{Key: "k2", LatencyUS: 100, Nodes: []NodeSample{{Path: "0", Op: "∃", Evals: 10, True: 1}}})

	byLat, err := r.TopK(ByLatency, 2)
	if err != nil || len(byLat) != 2 || byLat[0].Key != "k0" {
		t.Fatalf("by latency: %v %+v", err, byLat)
	}
	byCount, err := r.TopK(ByCount, 1)
	if err != nil || len(byCount) != 1 || byCount[0].Key != "k1" {
		t.Fatalf("by count: %v %+v", err, byCount)
	}
	bySel, err := r.TopK(BySelectivity, 3)
	if err != nil || bySel[0].Key != "k2" {
		t.Fatalf("by selectivity: %v %+v", err, bySel)
	}
	if _, err := r.TopK("nonsense", 1); err == nil {
		t.Fatal("unknown order accepted")
	}
}

// shardWeights sums the shards' weights under their locks.
func shardWeights(r *Registry) int64 {
	var w int64
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		w += sh.weight
		sh.mu.Unlock()
	}
	return w
}

func TestWeightEviction(t *testing.T) {
	// A tiny budget: every shard holds at most ~4 entries of ~1 KB.
	const budget = 64 * 1024
	r := New(budget)
	for i := 0; i < 500; i++ {
		r.Record(sampleFor(fmt.Sprintf("key-%04d", i), 10))
	}
	if r.Evictions() == 0 {
		t.Fatal("no evictions under a tiny weight budget")
	}
	if n := r.Len(); n >= 500 {
		t.Fatalf("registry holds %d entries, bound did not bite", n)
	}
	// The total weight respects the budget (per shard, so the sum does too).
	if w := shardWeights(r); w > budget {
		t.Fatalf("total weight %d exceeds budget", w)
	}
	if w, want := r.weightN.Load(), shardWeights(r); w != want {
		t.Fatalf("registry total %d, shards hold %d", w, want)
	}
}

// TestWeightIsBytes: an entry's weight covers at least its struct and
// strings, so the budget bounds real memory.
func TestWeightIsBytes(t *testing.T) {
	r := New(0)
	s := sampleFor("k", 1)
	r.Record(s)
	floor := int64(unsafe.Sizeof(entry{})) + int64(len(s.Key)+len(s.Domain)+len(s.Mode)+len(s.Query)) +
		int64(len(s.Nodes))*int64(unsafe.Sizeof(nodeAgg{}))
	if w := r.weightN.Load(); w < floor {
		t.Fatalf("weight %d under the %d bytes the entry occupies", w, floor)
	}
}

// TestImportPublishesWeight: Import updates the registry's total weight
// and the qstats.weight gauge, as Record does.
func TestImportPublishesWeight(t *testing.T) {
	donor := New(0)
	for i := 0; i < 5; i++ {
		donor.Record(sampleFor(fmt.Sprintf("k%d", i), 10))
	}
	r := New(0)
	r.Import(donor.Take())
	w := r.weightN.Load()
	if w == 0 || w != shardWeights(r) || w != donor.weightN.Load() {
		t.Fatalf("imported weight %d, shards hold %d, donor %d", w, shardWeights(r), donor.weightN.Load())
	}
	if g := gWeight.Value(); g != w {
		t.Fatalf("qstats.weight gauge %d after import, registry holds %d", g, w)
	}
}

// refModel is the registry's eviction policy as a plain full scan: on
// each update the touched key's shard drops its least-recently-updated
// other keys (ties to the smaller key) until it fits its budget. Weights
// come from the same computeWeight over the same strings and node paths.
type refModel struct {
	budget    int64
	clock     int64
	evictions int64
	shards    [numShards]map[string]*refEntry
}

type refEntry struct {
	e        entry // key, display strings and node ops, for computeWeight
	lastSeen int64
}

func newRefModel(maxWeight int64) *refModel {
	m := &refModel{budget: maxWeight / numShards}
	for i := range m.shards {
		m.shards[i] = map[string]*refEntry{}
	}
	return m
}

func (m *refModel) update(key, domain, mode, query string, nodes map[string]string) {
	h := fnv.New32a()
	h.Write([]byte(key))
	sh := m.shards[h.Sum32()%numShards]
	m.clock++
	re := sh[key]
	if re == nil {
		re = &refEntry{e: entry{key: key, domain: domain, mode: mode, query: query}}
		sh[key] = re
	}
	re.lastSeen = m.clock
	for path, op := range nodes {
		if re.e.nodes == nil {
			re.e.nodes = map[string]*nodeAgg{}
		}
		if re.e.nodes[path] == nil {
			re.e.nodes[path] = &nodeAgg{op: op}
		}
	}
	for {
		var total int64
		for _, x := range sh {
			total += x.e.computeWeight()
		}
		if total <= m.budget || len(sh) <= 1 {
			return
		}
		victimKey := ""
		var victim *refEntry
		for k, x := range sh {
			if k == key {
				continue
			}
			if victim == nil || x.lastSeen < victim.lastSeen || (x.lastSeen == victim.lastSeen && k < victimKey) {
				victimKey, victim = k, x
			}
		}
		delete(sh, victimKey)
		m.evictions++
	}
}

func (m *refModel) keys() []string {
	var out []string
	for _, sh := range m.shards {
		for k := range sh {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (m *refModel) weight() int64 {
	var w int64
	for _, sh := range m.shards {
		for _, x := range sh {
			w += x.e.computeWeight()
		}
	}
	return w
}

// TestEvictionMatchesReference replays random Record and Import sequences
// into a small-budget registry and into the full-scan reference model:
// after every operation both must hold the same keys, count the same
// evictions and weigh the same.
func TestEvictionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const maxWeight = 48 * 1024
		r := New(maxWeight)
		m := newRefModel(maxWeight)
		randKey := func() string { return fmt.Sprintf("q%03d", rng.Intn(120)) }
		randNodes := func() []NodeSample {
			var ns []NodeSample
			for i := rng.Intn(4); i > 0; i-- {
				p := fmt.Sprintf("0.%d", rng.Intn(6))
				ns = append(ns, NodeSample{Path: p, Op: "op" + p, Evals: 2, True: 1, Range: 3})
			}
			return ns
		}
		nodeMap := func(ns []NodeSample) map[string]string {
			out := map[string]string{}
			for _, n := range ns {
				out[n.Path] = n.Op
			}
			return out
		}
		for op := 0; op < 3000; op++ {
			if rng.Intn(5) > 0 {
				s := Sample{Key: randKey(), Domain: "eq", Mode: "active", LatencyUS: 7, Nodes: randNodes()}
				s.Query = "Q(" + s.Key + ")" + strings.Repeat("!", rng.Intn(40))
				r.Record(s)
				m.update(s.Key, s.Domain, s.Mode, s.Query, nodeMap(s.Nodes))
			} else {
				var snap Snapshot
				for i := 1 + rng.Intn(3); i > 0; i-- {
					v := EntryView{Key: randKey(), Domain: "eq", Mode: "enumerate", Query: "I", Evals: 1}
					nodes := map[string]string{}
					for _, n := range randNodes() {
						v.Nodes = append(v.Nodes, NodeView{Path: n.Path, Op: n.Op, Evals: 1})
						nodes[n.Path] = n.Op
					}
					snap.Entries = append(snap.Entries, v)
					m.update(v.Key, v.Domain, v.Mode, v.Query, nodes)
				}
				r.Import(snap)
			}
			var got []string
			for _, e := range r.Take().Entries {
				got = append(got, e.Key)
			}
			if want := m.keys(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d op %d: registry holds %v, reference %v", seed, op, got, want)
			}
			if r.Evictions() != m.evictions {
				t.Fatalf("seed %d op %d: %d evictions, reference %d", seed, op, r.Evictions(), m.evictions)
			}
			if w := r.weightN.Load(); w != m.weight() || w != shardWeights(r) {
				t.Fatalf("seed %d op %d: weight %d, shards %d, reference %d", seed, op, w, shardWeights(r), m.weight())
			}
		}
		if m.evictions == 0 {
			t.Fatalf("seed %d: the budget never evicted", seed)
		}
	}
}

// BenchmarkRecordEvicting records a stream of distinct point-shaped keys
// into a full registry, so every Record creates an entry and evicts one;
// its cost should not grow with the registry's size.
func BenchmarkRecordEvicting(b *testing.B) {
	for _, maxWeight := range []int64{1 << 18, 1 << 21, 1 << 24} {
		b.Run(fmt.Sprintf("weight=2^%d", bits.Len64(uint64(maxWeight))-1), func(b *testing.B) {
			r := New(maxWeight)
			keys := make([]string, 1<<16)
			samples := make([]Sample, len(keys))
			for i := range keys {
				keys[i] = fmt.Sprintf("(R(x) & lt(x, %d))#presburger#x", 1000003*i)
				samples[i] = Sample{Key: keys[i], Domain: "presburger", Mode: "active",
					Query: fmt.Sprintf("R(x) & lt(x, %d)", 1000003*i), LatencyUS: 60, Rows: 3, Plan: "algebra"}
			}
			for _, s := range samples {
				r.Record(s)
			}
			if r.Evictions() == 0 {
				b.Fatal("registry not full")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Record(samples[i%len(samples)])
			}
		})
	}
}

func TestImportRoundTrip(t *testing.T) {
	src := New(0)
	for i := 0; i < 10; i++ {
		src.Record(sampleFor(fmt.Sprintf("k%d", i), int64(i*50)))
		src.Record(Sample{Key: fmt.Sprintf("k%d", i), Stopped: "deadline", LatencyUS: 5})
	}
	exported := src.JSON()

	dst := New(0)
	if err := dst.ImportJSON(exported); err != nil {
		t.Fatal(err)
	}
	a, b := src.Take(), dst.Take()
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entries: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		// Clocks differ across registries; compare the aggregates.
		x.FirstSeen, x.LastSeen, y.FirstSeen, y.LastSeen = 0, 0, 0, 0
		if fmt.Sprintf("%+v", x) != fmt.Sprintf("%+v", y) {
			t.Fatalf("entry %d round-trip mismatch:\n%+v\n%+v", i, x, y)
		}
	}

	// Importing the same snapshot again doubles the counts (merge, not
	// replace).
	if err := dst.ImportJSON(exported); err != nil {
		t.Fatal(err)
	}
	e := dst.Take().Entries[0]
	if e.Evals != 2*a.Entries[0].Evals || e.Latency.Sum != 2*a.Entries[0].Latency.Sum {
		t.Fatalf("second import did not merge: %+v vs %+v", e, a.Entries[0])
	}
	if e.Latency.Max != a.Entries[0].Latency.Max {
		t.Fatalf("max should merge by maximum: %+v", e.Latency)
	}
}

func TestImportJSONRejectsGarbage(t *testing.T) {
	if err := New(0).ImportJSON([]byte("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestConcurrentRecordSnapshotEvict is the -race check: writers, snapshot
// readers, and import all run concurrently against one registry with a
// budget small enough to evict constantly.
func TestConcurrentRecordSnapshotEvict(t *testing.T) {
	r := New(64 * 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				r.Record(sampleFor(fmt.Sprintf("g%d-k%d", g, i%40), int64(i)))
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				snap := r.Take()
				for _, e := range snap.Entries {
					if e.Latency.Count != e.Evals {
						t.Errorf("torn entry: count %d evals %d", e.Latency.Count, e.Evals)
						return
					}
				}
				if _, err := r.TopK(ByLatency, 5); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		donor := New(0)
		donor.Record(sampleFor("imported", 77))
		data := donor.JSON()
		for i := 0; i < 20; i++ {
			if err := r.ImportJSON(data); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if r.Len() == 0 {
		t.Fatal("registry empty after concurrent writes")
	}
}

func TestBucketSchemeMatchesObs(t *testing.T) {
	// The registry's latency buckets must stay aligned with the obs
	// histogram scheme, or import and exposition drift apart.
	for _, v := range []int64{0, 1, 2, 3, 4, 1023, 1024, 1 << 40} {
		i := obs.BucketIndex(v)
		if i < 0 || i >= obs.NumBuckets {
			t.Fatalf("BucketIndex(%d) = %d out of range", v, i)
		}
		if lbl := obs.BucketLabel(i); lbl == "" {
			t.Fatalf("empty label for bucket %d", i)
		}
	}
	if obs.BucketIndex(1024) != obs.BucketIndex(2047) || obs.BucketIndex(1023) == obs.BucketIndex(1024) {
		t.Fatal("power-of-two bucket edges misplaced")
	}
}

func TestWriteTable(t *testing.T) {
	r := New(0)
	r.Record(sampleFor("k1", 100))
	entries, err := r.TopK(ByLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteTable(&buf, entries)
	out := buf.String()
	for _, want := range []string{"EVALS", "QUERY", "Q(k1)", "eq: "} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("table misses %q:\n%s", want, out)
		}
	}
}
