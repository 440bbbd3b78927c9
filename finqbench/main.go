// Command finqbench is the repository's benchmark: it boots finqd
// in-process with its shipped defaults, drives one closed-loop client over
// loopback at GOMAXPROCS=1 through one of three seeded workloads, checks
// every answer against the generator's own oracle, and prints one JSON
// result line.
//
//	finqbench --workload point --seed 1 --seconds 36 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer breakdown from a separate traced run (trace.go).
// README.md describes the workloads, the metrics and the evidence behind
// the load shape.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/deccache"
	"repro/internal/obs"
	"repro/internal/obs/prof"
	"repro/internal/obs/qstats"
	"repro/internal/plan"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string          // extra # lines for a human reader
}

// stamp identifies a result: the inputs, the host, the build, the cache
// capacities the workloads were sized against next to the program's own,
// and every metric's sample count. It is printed as the line before the
// result.
type stamp struct {
	Workload     string         `json:"workload"`
	Seed         uint64         `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        int            `json:"trace"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	NProc        int            `json:"nproc"`
	GoVersion    string         `json:"go_version"`
	Commit       string         `json:"commit"`
	SizedAgainst map[string]int `json:"sized_against"`
	Capacity     map[string]int `json:"capacity"`
	Samples      map[string]int `json:"samples"`
}

func main() {
	runtime.GOMAXPROCS(1)
	workload := flag.String("workload", "", "point, enum-stream or safety")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 36, "length of the measured window")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	setupChild := flag.Bool("setup-child", false, "measure one set-up and print its seconds (internal)")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err := checkDefaults(); err != nil {
		fatalf("%v", err)
	}
	setupLogging()
	g, err := newGen(*workload, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	warmup := g.take(warmupCalls[*workload])
	ctx := context.Background()
	if *setupChild {
		_, secs, err := setUp(ctx, g.spec, warmup)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(strconv.FormatFloat(secs, 'g', -1, 64))
		return
	}
	pool := g.take(poolRate[*workload] * *seconds)
	// rss_peak_mb covers finqd's set-up and the measured window, not the
	// garbage input generation leaves behind.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fatalf("resetting the peak RSS: %v", err)
	}
	st := stamp{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
		SizedAgainst: map[string]int{"plan": planCacheCap, "deccache": decCacheCap},
		Capacity:     map[string]int{"plan": plan.DefaultCacheCapacity, "deccache": deccache.DefaultCapacity},
		Samples:      map[string]int{},
	}
	window := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = runTraced(ctx, g.spec, warmup, pool, window, st.Samples)
	} else {
		res, err = runMeasured(ctx, *workload, *seed, g.spec, warmup, pool, window, st.Samples)
	}
	if err != nil {
		fatalf("%v", err)
	}
	report(st, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// checkDefaults confirms the observability and cache toggles are at their
// defaults (all on), as finqd ships them.
func checkDefaults() error {
	for name, on := range map[string]bool{
		"obs": obs.Enabled(), "qstats": qstats.Enabled(), "prof": prof.Enabled(),
		"plan": plan.Enabled(), "deccache": deccache.Enabled(),
	} {
		if !on {
			return fmt.Errorf("toggle %s is off; finqd ships it on", name)
		}
	}
	return nil
}

// commit is the VCS revision the binary was built from, or "unknown" when
// it was built outside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// runMeasured is the end-to-end run: one set-up, then a closed-loop window
// with one fresh-process set-up measured before each of its parts.
func runMeasured(ctx context.Context, workload string, seed uint64, sp spec, warmup, pool *pool,
	window time.Duration, samples map[string]int) (result, error) {

	f, _, err := setUp(ctx, sp, warmup)
	if err != nil {
		return result{}, err
	}
	var setups []float64
	w, err := closedLoop(ctx, f.cl, pool, window, func() error {
		// Finish the collector's work first: an idle P would otherwise run
		// it at full speed beside the child, which slowed a third of the
		// children by 45–80%.
		runtime.GC()
		s, err := childSetup(workload, seed)
		setups = append(setups, s)
		return err
	})
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	all := latencies(w.parts, false)
	p99, err := percentile(all, 0.99)
	if err != nil {
		return result{}, err
	}
	p50, p50s, err := meanPartMedian(w.parts, false)
	if err != nil {
		return result{}, err
	}
	first, firsts, err := meanPartMedian(w.parts, true)
	if err != nil {
		return result{}, err
	}
	queries := len(all)
	var elapsed time.Duration
	var rates []float64
	for _, p := range w.parts {
		elapsed += p.elapsed
		rates = append(rates, p.rate())
	}
	samples["requests"] = w.calls
	samples["pool"] = pool.len()
	samples["qps"] = queries
	samples["p50_ms"] = queries
	samples["first_row_ms"] = queries
	samples["p99_ms"] = queries
	samples["allocs_per_q"] = queries
	samples["rss_peak_mb"] = 1
	samples["setup_s"] = len(setups)
	return result{
		Correct:   w.failed == 0,
		Attempted: w.calls,
		Failed:    w.failed,
		Metrics: map[string]metric{
			"qps":          {float64(queries) / elapsed.Seconds(), "queries/s"},
			"p50_ms":       {p50, "ms"},
			"p99_ms":       {p99, "ms"},
			"first_row_ms": {first, "ms"},
			"allocs_per_q": {float64(w.allocs) / float64(queries), "objects/query"},
			"rss_peak_mb":  {rss, "MiB"},
			"setup_s":      {median(slices.Clone(setups)), "s"},
		},
		notes: []string{
			"sub-window queries/s: " + joinFloats(rates),
			"sub-window p50 ms:    " + joinFloats(p50s),
			"sub-window 1st row ms:" + joinFloats(firsts),
			"set-up seconds:       " + joinFloats(setups),
		},
	}, nil
}

// joinFloats renders values for a # line.
func joinFloats(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(out, " ")
}

// childSetup measures one set-up in a fresh child process of this binary
// with the same workload and seed.
func childSetup(workload string, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-child", "--workload", workload, "--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", b, err)
	}
	return v, nil
}

// The measured window is cut into subWindows equal parts. Before each part,
// off the window's clock, one fresh process measures one set-up, so the
// set-up samples are spread over the whole run as the window's are.
//
// Every metric covers the whole window. p50_ms and first_row_ms are each
// part's median, averaged over the parts. The shared host alternates
// between a fast and a slow speed in phases of tens of seconds. The median
// of a run's pooled latencies jumps from one speed's mode to the other's as
// their shares of the run change; the mean of the parts' medians moves in
// proportion to the shares, as qps does. On a steady host the two agree.
const subWindows = 10

// done is one successful call of a closed-loop window.
type done struct {
	lat   float64 // ms
	first float64 // ms
}

// part is one of a window's sub-windows.
type part struct {
	done    []done
	elapsed time.Duration
}

// rate is the part's queries (good calls) per second.
func (p *part) rate() float64 { return float64(len(p.done)) / p.elapsed.Seconds() }

// loopWindow is what a closed-loop window measured.
type loopWindow struct {
	parts  []part
	calls  int    // requests sent
	failed int    // errors and wrong answers
	allocs uint64 // heap objects allocated in the parts
}

// closedLoop sends pool calls one at a time for subWindows equal parts of
// the window, checking each against the oracle as it returns. Before each
// part it calls between, whose time and allocations do not count.
func closedLoop(ctx context.Context, cl *caller, pool *pool, window time.Duration, between func() error) (loopWindow, error) {
	var w loopWindow
	size := window / subWindows
	n := 0
	for k := 0; k < subWindows; k++ {
		if err := between(); err != nil {
			return w, err
		}
		var p part
		a0 := heapAllocs()
		t0 := time.Now()
		for end := t0.Add(size); time.Now().Before(end); n++ {
			c := pool.get(n % pool.len())
			o, err := cl.do(ctx, &c)
			w.calls++
			if err != nil || o.got != c.want {
				w.failed++
				if err == nil {
					err = fmt.Errorf("answer differs from the oracle")
				}
				fmt.Fprintf(os.Stderr, "finqbench: call %d failed: %v\n", n, err)
				continue
			}
			p.done = append(p.done, done{float64(o.lat) / 1e6, float64(o.firstRow) / 1e6})
		}
		p.elapsed = time.Since(t0)
		w.allocs += heapAllocs() - a0
		if len(p.done) == 0 {
			return w, fmt.Errorf("no call succeeded in sub-window %d", k)
		}
		w.parts = append(w.parts, p)
	}
	return w, nil
}

// meanPartMedian returns each part's median latency (or first-row time)
// and their mean.
func meanPartMedian(parts []part, first bool) (float64, []float64, error) {
	meds := make([]float64, 0, len(parts))
	sum := 0.0
	for _, p := range parts {
		m, err := percentile(latencies([]part{p}, first), 0.5)
		if err != nil {
			return 0, nil, err
		}
		meds = append(meds, m)
		sum += m
	}
	return sum / float64(len(parts)), meds, nil
}

// latencies returns the latencies (or first-row times) of the parts' good
// calls, ascending.
func latencies(parts []part, first bool) []float64 {
	var out []float64
	for _, p := range parts {
		for _, d := range p.done {
			if first {
				out = append(out, d.first)
			} else {
				out = append(out, d.lat)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// report prints a readable summary, the stamp line and the result line.
func report(st stamp, res result) {
	failedFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("# %s seed=%d trace=%d: %d requests, failed_frac=%g\n", st.Workload, st.Seed, st.Trace, res.Attempted, failedFrac)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("#   %-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.notes {
		fmt.Printf("#   %s\n", n)
	}
	for _, v := range []any{map[string]stamp{"stamp": st}, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fatalf("encoding output: %v", err)
		}
		fmt.Println(string(b))
	}
}
