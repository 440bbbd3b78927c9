GO ?= go

.PHONY: build test vet staticcheck race bench bench-obs bench-perf bench-compile bench-log bench-qstats bench-prof bench-serve bench-index trace-demo trace-stitch-demo serve-smoke serve-check lint-logs docs-api docs-api-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# staticcheck runs honnef.co/go/tools if installed, falling back to go vet
# so the target works in minimal environments.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# race runs the suite in shuffled order, so a test that only passes after
# (or before) another one fails here; go test prints the seed to rerun it
# with -shuffle=<seed>.
race:
	$(GO) test -race -shuffle=on ./...

# bench-obs measures the observability layer's overhead on EvalActiveCtx
# in four postures: uninstrumented, instrumented (recorder disarmed),
# flight recorder armed, and armed under a W3C trace position (every span
# mints a child span ID). Writes BENCH_obs.json; fails if the
# instrumented overhead or the identity-minting increment exceeds 3%.
bench-obs:
	BENCH_OBS=1 $(GO) test -run TestWriteBenchObs -count=1 -v .

# bench is the historical alias for bench-obs.
bench: bench-obs

# bench-perf measures the E1 enumeration through three evaluators (the
# pre-optimization loop, the incremental loop with the decision cache off,
# and with it on) and writes BENCH_perf.json with rows/sec and the cache
# hit rate. The three run over nless, whose §1.1 loop asks the Cooper
# decider (over presburger the automaton answers and decides nothing).
# Fails if cache + incremental enumeration is not at least 2x the uncached
# rows/sec, or if the default presburger path passes its allocs/op budget.
bench-perf:
	BENCH_PERF=1 $(GO) test -run TestWriteBenchPerf -count=1 -v .

# bench-compile measures the E1 enumeration through the interpreter
# (planner off, decision cache on, over nless so the decider answers) and
# through the plan-caching compiler (the default, over presburger) and
# writes BENCH_compile.json with rows/sec for both and the plan-cache hit
# rate. Fails if compiled is not at least 10x the interpreted rows/sec.
bench-compile:
	BENCH_COMPILE=1 $(GO) test -run TestWriteBenchCompile -count=1 -v .

# bench-log measures the structured access log's overhead on the E1
# request through the full finqd handler chain (logging on vs. a disabled
# handler) and writes BENCH_log.json. Fails if the overhead exceeds 3%.
bench-log:
	BENCH_LOG=1 $(GO) test -run TestWriteBenchLog -count=1 -v ./internal/server

# bench-qstats measures the per-query stats registry's overhead on the E1
# evaluation through finq.Eval (recording on vs. the toggle off) and
# writes BENCH_qstats.json. Fails if the overhead exceeds 3%.
bench-qstats:
	BENCH_QSTATS=1 $(GO) test -run TestWriteBenchQstats -count=1 -v .

# bench-prof measures the pprof label attribution + allocation metering
# overhead on the E1 evaluation through finq.Eval (the prof toggle on vs.
# off) and writes BENCH_prof.json. Fails if the overhead exceeds 3%.
bench-prof:
	BENCH_PROF=1 $(GO) test -run TestWriteBenchProf -count=1 -v .

# bench-serve runs the finqload measurement against an in-process finqd on
# the E1 corpus and writes BENCH_serve.json. Fails if batched per-query
# throughput is under 5x single /v1/eval, or if the first streamed row of
# a budget-bound enumeration arrives outside the first half of the run.
bench-serve:
	BENCH_SERVE=1 $(GO) test -run TestWriteBenchServe -count=1 -v ./cmd/finqload

# docs-api regenerates docs/API.md from the apiv1 wire types;
# docs-api-check (used by CI) verifies it is current.
docs-api:
	$(GO) run scripts/apidocgen.go

docs-api-check:
	$(GO) run scripts/apidocgen.go -check

# bench-index merges every BENCH_*.json measurement into the versioned
# BENCH_index.json; `-check` mode (used by CI) verifies it is current.
bench-index:
	$(GO) run scripts/benchindex.go

# trace-demo records the E1 experiment (enumeration over the Presburger
# domain) with the flight recorder armed and writes a Chrome trace —
# load trace-e1.json in https://ui.perfetto.dev or chrome://tracing.
trace-demo:
	$(GO) run ./cmd/finq -trace-out trace-e1.json eval \
		-domain presburger -mode enumerate -rows 32 \
		-state testdata/e1_state.json "exists y. (R(y) & lt(x, y))"
	@echo "wrote trace-e1.json"

# trace-stitch-demo is the distributed-tracing loop end to end: finqload
# boots a two-shard in-process fleet with armed flight recorders (one W3C
# trace root per synthetic request), dumps one JSONL ring per shard, and
# `finq trace stitch` merges them into a single Chrome trace with one
# lane per process — which scripts/tracecheck.go then validates
# structurally (two lanes, begin/end discipline, flow pairing). Load
# stitched.trace.json in https://ui.perfetto.dev or chrome://tracing.
trace-stitch-demo:
	rm -rf trace-stitch-dumps && mkdir -p trace-stitch-dumps
	$(GO) run ./cmd/finqload -shards 2 -trace-dir trace-stitch-dumps \
		-duration 2s -warmup 500ms
	$(GO) run ./cmd/finq trace stitch -out stitched.trace.json \
		trace-stitch-dumps/*.trace.jsonl
	$(GO) run scripts/tracecheck.go -min-events 100 -min-lanes 2 stitched.trace.json
	@echo "wrote stitched.trace.json"

# serve-smoke boots finqd on an ephemeral port, exercises every endpoint
# once in-process (no curl needed), verifies the service metrics, and
# writes a Chrome trace of the server-side evaluations to trace-serve.json.
serve-smoke:
	$(GO) run ./cmd/finqd -trace-out trace-serve.json -smoke
	@echo "wrote trace-serve.json"

# serve-check probes a running finqd from the outside with curl: health
# endpoints must answer 200 and /metrics must be a well-formed Prometheus
# exposition (scripts/expocheck.go).
serve-check:
	sh scripts/serve-check.sh

# lint-logs enforces that the server emits all its output through the
# structured access log: no bare fmt.Print*/log.Print* in internal/server
# production code (test files may print benchmark summaries).
lint-logs:
	@if ls internal/server/*.go | grep -v _test.go | xargs grep -nE '(fmt|log)\.Print'; then \
		echo "lint-logs: internal/server must log through slog, not fmt/log.Print*"; \
		exit 1; \
	else \
		echo "lint-logs: internal/server is clean"; \
	fi
