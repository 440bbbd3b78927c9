// Observability-overhead benchmark: the same EvalActiveCtx workload with
// metric collection off, on, and on with the flight recorder armed under
// a distributed-trace position (so every span also mints a W3C span ID
// and records identity-carrying events). `make bench-obs` runs
// TestWriteBenchObs, which measures all three and writes BENCH_obs.json;
// the acceptance bar is total span overhead — including ID minting —
// under 3%, and disabled overhead indistinguishable from the seed (the
// off path is a single atomic load per would-be record).
package finq

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/obs/tracectx"
	"repro/internal/query"
)

// obsBenchWorkload is a two-variable join with a quantifier over an
// 8-element active domain — enough evalIn recursion that the workload is
// the evaluator, not the instrumentation boundary.
func obsBenchWorkload(tb testing.TB) (*db.State, *logic.Formula) {
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	words := []string{"adam", "abel", "cain", "eve", "seth", "enos", "noah", "shem"}
	for i, a := range words {
		b := words[(i+1)%len(words)]
		if err := st.Insert("F", domain.Word(a), domain.Word(b)); err != nil {
			tb.Fatal(err)
		}
	}
	f := logic.And(
		logic.Atom("F", logic.Var("x"), logic.Var("y")),
		logic.Exists("z", logic.And(
			logic.Atom("F", logic.Var("y"), logic.Var("z")),
			logic.Not(logic.Eq(logic.Var("z"), logic.Var("x"))))))
	return st, f
}

// Obs-bench modes: the seed path (one atomic load per would-be record),
// the instrumented path (spans + metric atomics, recorder disarmed — the
// always-on production posture), the armed path (a private flight
// recorder recording every span, no trace position — the pre-identity
// cost of a -trace-out run), and the traced path (armed recorder plus a
// W3C trace position on ctx, so each span additionally mints a child
// span ID and records begin/end events carrying TraceID/SpanID/ParentID
// — the full distributed-tracing posture).
const (
	obsOff = iota
	obsOn
	obsArmed
	obsTraced
)

func runObsBench(b *testing.B, mode int) {
	st, f := obsBenchWorkload(b)
	prev := obs.SetEnabled(mode != obsOff)
	defer obs.SetEnabled(prev)
	ctx := context.Background()
	if mode == obsArmed || mode == obsTraced {
		rec := trace.NewRecorder()
		rec.Arm(1 << 12)
		defer rec.Disarm()
		ctx = trace.WithRecorder(ctx, rec)
		if mode == obsTraced {
			ctx = tracectx.With(ctx, tracectx.NewRoot())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := query.EvalActiveCtx(ctx, eqdom.Domain{}, st, f)
		if err != nil || ans.Rows.Len() == 0 {
			b.Fatalf("bad answer: %v %v", ans, err)
		}
	}
}

func BenchmarkEvalActiveObsOn(b *testing.B)     { runObsBench(b, obsOn) }
func BenchmarkEvalActiveObsOff(b *testing.B)    { runObsBench(b, obsOff) }
func BenchmarkEvalActiveObsArmed(b *testing.B)  { runObsBench(b, obsArmed) }
func BenchmarkEvalActiveObsTraced(b *testing.B) { runObsBench(b, obsTraced) }

// TestWriteBenchObs measures all three modes and writes BENCH_obs.json.
// Gated behind BENCH_OBS=1 (the `make bench-obs` target) so plain
// `go test` stays fast and does not rewrite the checked-in measurement.
func TestWriteBenchObs(t *testing.T) {
	if os.Getenv("BENCH_OBS") == "" {
		t.Skip("set BENCH_OBS=1 (or run `make bench-obs`) to write BENCH_obs.json")
	}
	// Alternate modes over several rounds and keep each mode's fastest
	// run: the minimum is the least-noise estimate of the true cost, and
	// interleaving cancels drift (thermal, cache warmup) between modes.
	const rounds = 5
	best := map[int]int64{}
	for r := 0; r < rounds; r++ {
		for _, mode := range []int{obsOn, obsOff, obsArmed, obsTraced} {
			res := testing.Benchmark(func(b *testing.B) { runObsBench(b, mode) })
			if best[mode] == 0 || res.NsPerOp() < best[mode] {
				best[mode] = res.NsPerOp()
			}
		}
	}
	pct := func(mode, base int) float64 {
		if best[base] == 0 {
			return 0
		}
		return (float64(best[mode]) - float64(best[base])) / float64(best[base]) * 100
	}
	// The two 3% bars: the always-on production path (spans + metric
	// atomics, recorder disarmed) against the seed, and the identity
	// minting this PR added (armed recorder with a trace position) against
	// the armed recorder without one — each span of the traced run mints a
	// W3C child span ID and records three extra identity fields, and that
	// increment is what must stay under 3%. The armed recorder itself is
	// an opt-in debugging posture and carries no bar.
	onPct, mintPct := pct(obsOn, obsOff), pct(obsTraced, obsArmed)
	out := map[string]any{
		"benchmark":            "query.EvalActiveCtx (8-row state, 2 free vars, 1 quantifier)",
		"ns_per_op_enabled":    best[obsOn],
		"ns_per_op_disabled":   best[obsOff],
		"ns_per_op_armed":      best[obsArmed],
		"ns_per_op_traced":     best[obsTraced],
		"rounds":               rounds,
		"overhead_pct":         onPct,
		"minting_overhead_pct": mintPct,
		"note":                 "min ns/op over interleaved rounds; disabled is the seed evaluator plus one atomic load per would-be record; enabled adds one span and a handful of atomic adds per call; armed additionally records every span into a private flight recorder; traced further mints a W3C child span ID per span under a trace position. Bars: enabled vs disabled < 3%, traced vs armed (the identity-minting increment) < 3%",
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("BENCH_obs.json: enabled %d ns/op (%.2f%%), armed %d, traced %d (minting %.2f%%), disabled %d ns/op\n",
		best[obsOn], onPct, best[obsArmed], best[obsTraced], mintPct, best[obsOff])
	if onPct >= 3.0 {
		t.Errorf("instrumentation overhead %.2f%% exceeds the 3%% budget", onPct)
	}
	if mintPct >= 3.0 {
		t.Errorf("span-identity minting overhead %.2f%% exceeds the 3%% budget", mintPct)
	}
}
