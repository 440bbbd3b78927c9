// Command finqd serves the library over HTTP/JSON: evaluation, decision,
// quantifier elimination, and relative safety as a long-running service
// with bounded concurrency and cancellable, request-scoped evaluation.
//
// Usage:
//
//	finqd [-addr host:port] [-workers n] [-queue n]
//	      [-timeout-eval d] [-timeout-decide d] [-max-body bytes]
//	      [-slow d] [-drain-grace d]
//	      [-slo-latency d] [-slo-target f] [-slo-error-target f]
//	      [-slo-tick d] [-slo-fast d] [-slo-slow d] [-slo-burn f]
//	      [-profile-capture[=false]] [-profile-dur d] [-profile-ring n]
//	      [-profile-cooldown d]
//	finqd -smoke
//
// The global flags (-debug-addr, -trace-out, -cache, -log-level,
// -log-format) apply as in the other tools; /metrics, /debug/obs, and
// /debug/pprof/ are also served by finqd itself, so -debug-addr is only
// needed to put them on a separate port. The access log (one structured
// line per request, carrying the request's trace ID) goes to stderr
// through the shared slog setup, so `finq eval` and finqd emit uniform
// logs.
//
// SIGINT or SIGTERM begins a graceful shutdown: /readyz flips to 503, the
// -drain-grace window lets balancers stop routing, then the listener
// closes and in-flight requests run to completion (bounded by their own
// deadlines). Requests slower than -slow — plus errored requests and the
// first request of each distinct query — get their span subtree captured
// from the flight recorder into the tail sampler: /debug/slow lists the
// captures, /debug/slow?id=<trace id> retrieves one. Per-query
// aggregates (latency, selectivity, cache hits, keyed by the formula's
// canonical key) are served on /v1/stats/queries (JSON) and
// /debug/queries (text table).
//
// The SLO burn-rate engine watches the pooled endpoints (eval, decide,
// qe, safety): each gets a latency objective (-slo-latency at -slo-target,
// bucket-rounded) and an error objective (-slo-error-target), sampled
// every -slo-tick over the -slo-fast and -slo-slow windows. When the fast
// burn crosses -slo-burn with the slow window confirming, the trip is
// logged, exported on /metrics and GET /v1/slo, and — unless
// -profile-capture=false — a bounded CPU+heap profile pair is captured
// into a ring of -profile-ring, cross-linked to the tripping request and
// its tail-sampler trace. GET /debug/profiles lists the captures;
// ?id=&kind=cpu|heap downloads raw pprof bytes; POST
// /debug/profiles/capture runs one on demand. -slo-latency 0 disables the
// engine entirely. GET /v1/version reports the build identity so captured
// evidence pins to the binary that produced it.
//
// -smoke starts the server on an ephemeral port, exercises every endpoint
// once in-process — including /healthz, /readyz and its drain flip, the
// traceparent echo, the access log, and the smoke query's presence on
// /v1/stats/queries — verifies the service metrics appear on /metrics,
// and exits nonzero on any failure. It exists for CI and
// `make serve-smoke`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/server"
)

func main() {
	args, run, finish, err := cliutil.Setup("finqd", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "finqd:", err)
		os.Exit(1)
	}
	defer finish()
	fs := flag.NewFlagSet("finqd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address")
	workers := fs.Int("workers", 0, "max concurrent evaluations (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max queued requests beyond the workers (0 = 2x workers)")
	timeoutEval := fs.Duration("timeout-eval", 30*time.Second, "per-request deadline for /v1/eval")
	timeoutDecide := fs.Duration("timeout-decide", 10*time.Second, "per-request deadline for /v1/decide, /v1/qe, /v1/safety")
	maxBody := fs.Int64("max-body", 1<<20, "request body limit in bytes")
	slow := fs.Duration("slow", time.Second, "capture the span subtree of requests at least this slow")
	drainGrace := fs.Duration("drain-grace", 500*time.Millisecond, "wait between flipping /readyz and closing the listener on shutdown")
	sloLatency := fs.Duration("slo-latency", time.Second, "latency SLO threshold per pooled endpoint (0 disables the SLO engine)")
	sloTarget := fs.Float64("slo-target", 0.99, "fraction of requests that must meet -slo-latency")
	sloErrorTarget := fs.Float64("slo-error-target", 0.999, "fraction of requests that must not error")
	sloTick := fs.Duration("slo-tick", 10*time.Second, "SLO burn-rate sampling period")
	sloFast := fs.Duration("slo-fast", time.Minute, "fast SLO burn window")
	sloSlow := fs.Duration("slo-slow", 10*time.Minute, "slow SLO burn window")
	sloBurn := fs.Float64("slo-burn", 8, "fast-window burn rate that trips a capture (slow window confirms at half)")
	profCapture := fs.Bool("profile-capture", true, "capture a CPU+heap profile pair on SLO trips")
	profDur := fs.Duration("profile-dur", 2*time.Second, "CPU window of each triggered profile capture")
	profRing := fs.Int("profile-ring", 8, "profile captures retained before the oldest is evicted")
	profCooldown := fs.Duration("profile-cooldown", 5*time.Minute, "suppress repeat captures for one trigger reason this long")
	service := fs.String("service", "finqd", "service name stamped on exported trace resources (see /debug/trace/export)")
	smoke := fs.Bool("smoke", false, "start on an ephemeral port, exercise every endpoint once, exit")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	cfg := server.Config{
		Addr:                   *addr,
		ServiceName:            *service,
		Workers:                *workers,
		QueueDepth:             *queue,
		EvalTimeout:            *timeoutEval,
		DecideTimeout:          *timeoutDecide,
		MaxBody:                *maxBody,
		SlowRequest:            *slow,
		DrainGrace:             *drainGrace,
		SLOLatency:             *sloLatency,
		SLOLatencyTarget:       *sloTarget,
		SLOErrorTarget:         *sloErrorTarget,
		SLOTick:                *sloTick,
		SLOFastWindow:          *sloFast,
		SLOSlowWindow:          *sloSlow,
		SLOTripBurn:            *sloBurn,
		ProfileCaptureDisarmed: !*profCapture,
		ProfileCPUDuration:     *profDur,
		ProfileRing:            *profRing,
		ProfileCooldown:        *profCooldown,
		Run:                    run,
	}
	if *smoke {
		cfg.Addr = "127.0.0.1:0"
		cfg.DrainGrace = 0 // the smoke drives the drain flip itself
		if err := runSmoke(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "finqd: smoke:", err)
			finish()
			os.Exit(1)
		}
		return
	}
	if err := serve(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "finqd:", err)
		finish()
		os.Exit(1)
	}
}

func serve(cfg server.Config) error {
	srv := server.New(cfg)
	addr, err := srv.Start()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "finqd: serving on http://%s (POST /v1/eval /v1/decide /v1/qe /v1/safety, GET /v1/domains /healthz /readyz /metrics)\n", addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "finqd: shutting down: /readyz now 503, draining in-flight requests")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
