// Plan-compiler benchmark: the E1 enumeration workload through the
// interpreter (planner disabled, decision cache on — the previous best
// configuration) and through the plan-caching compiler (the default). `make
// bench-compile` runs TestWriteBenchCompile, which measures both and writes
// BENCH_compile.json; the acceptance bar is compiled ≥ 10× the interpreted
// rows/sec.
//
// The interpreted variant runs over N< with the memoized Cooper decider
// (perfDecider): over presburger the planner-off loop answers from the
// automaton of φ' instead, which is not the decider-driven loop the bar
// bounds. The compiled variant is the served presburger path.
package finq

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/deccache"
	"repro/internal/domains/nless"
	"repro/internal/plan"
	"repro/internal/presburger"
	"repro/internal/query"
)

// runCompileBench measures the E1 workload (32 rows, stride 4, membership
// query) with the planner toggled as given: on over Presburger, off over
// N< with the decider. The decision cache is on in both variants, so the
// planner is measured against the interpreter at its best, not against a
// strawman.
func runCompileBench(b *testing.B, planned bool) {
	prevPlan := plan.SetEnabled(planned)
	defer plan.SetEnabled(prevPlan)
	prevCache := deccache.SetEnabled(true)
	defer deccache.SetEnabled(prevCache)
	st, f := perfBenchWorkload(b)
	budget := perfBenchBudget()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ans *query.Answer
		var err error
		if planned {
			ans, err = query.EnumerationAnswerSinkCtx(context.Background(), presburger.Domain{}, presburger.Decider(), st, f, budget, nil)
		} else {
			ans, err = query.EnumerationAnswerSinkCtx(context.Background(), nless.Domain{}, perfDecider(), st, f, budget, nil)
		}
		if err != nil || !ans.Complete || ans.Rows.Len() != perfBenchRows {
			b.Fatalf("bad answer: %v %v", ans, err)
		}
	}
}

func BenchmarkEnumCompileInterpreted(b *testing.B) { runCompileBench(b, false) }

func BenchmarkEnumCompileCompiled(b *testing.B) { runCompileBench(b, true) }

// TestWriteBenchCompile measures both variants and writes
// BENCH_compile.json. Gated behind BENCH_COMPILE=1 (the `make
// bench-compile` target) so plain `go test` stays fast and does not
// rewrite the checked-in measurement.
func TestWriteBenchCompile(t *testing.T) {
	if os.Getenv("BENCH_COMPILE") == "" {
		t.Skip("set BENCH_COMPILE=1 (or run `make bench-compile`) to write BENCH_compile.json")
	}
	// Interleave the variants over several rounds and keep each variant's
	// fastest run — the minimum is the least-noise estimate, and
	// interleaving cancels drift between variants.
	const rounds = 3
	ns := map[string]int64{}
	for r := 0; r < rounds; r++ {
		for name, bench := range map[string]func(*testing.B){
			"interpreted": BenchmarkEnumCompileInterpreted,
			"compiled":    BenchmarkEnumCompileCompiled,
		} {
			res := testing.Benchmark(bench)
			if ns[name] == 0 || res.NsPerOp() < ns[name] {
				ns[name] = res.NsPerOp()
			}
		}
	}
	rowsPerSec := func(name string) float64 {
		return float64(perfBenchRows) / (float64(ns[name]) / 1e9)
	}

	// Plan-cache hit rate over a steady-state stretch: a tallied context
	// attributes each evaluation's plan lookups; after the first compile
	// every lookup is a hit.
	prevPlan := plan.SetEnabled(true)
	st, f := perfBenchWorkload(t)
	budget := perfBenchBudget()
	ctx, tally := plan.WithTally(context.Background())
	const steadyRuns = 16
	for i := 0; i < steadyRuns; i++ {
		if _, err := query.EnumerationAnswerSinkCtx(ctx, presburger.Domain{}, presburger.Decider(), st, f, budget, nil); err != nil {
			t.Fatal(err)
		}
	}
	plan.SetEnabled(prevPlan)
	hits, misses := tally.Hits.Load(), tally.Misses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses) * 100
	}

	speedup := float64(ns["interpreted"]) / float64(ns["compiled"])
	out := map[string]any{
		"benchmark":                       fmt.Sprintf("query.EnumerationAnswerSinkCtx, E1 workload (%d rows), plan compiler over presburger vs interpreter over nless with Cooper QE", perfBenchRows),
		"rows":                            perfBenchRows,
		"rounds":                          rounds,
		"plan_tier":                       string(tally.Tier()),
		"ns_per_op_interpreted":           ns["interpreted"],
		"ns_per_op_compiled":              ns["compiled"],
		"rows_per_sec_interpreted":        rowsPerSec("interpreted"),
		"rows_per_sec_compiled":           rowsPerSec("compiled"),
		"speedup_compiled_vs_interpreted": speedup,
		"plan_cache_hit_rate_pct":         hitRate,
		"note":                            "min ns/op over interleaved rounds; interpreted = planner off, incremental enumeration loop over nless with the memoized decider (the previous best; over presburger the automaton would answer instead); compiled = plan-caching compiler (algebra tier materializes the answer once, probes replay against it)",
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_compile.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("BENCH_compile.json: interpreted %d ns/op (%.1f rows/s), compiled %d ns/op (%.1f rows/s), %.1fx, plan-cache hit rate %.1f%%\n",
		ns["interpreted"], rowsPerSec("interpreted"), ns["compiled"], rowsPerSec("compiled"), speedup, hitRate)
	if speedup < 10 {
		t.Errorf("compiled/interpreted speedup %.2fx below the 10x acceptance bar", speedup)
	}
	if got := rowsPerSec("compiled"); got < 436 {
		t.Errorf("compiled throughput %.1f rows/sec below the 436 rows/sec bar (10x the cached interpreter baseline)", got)
	}
}
