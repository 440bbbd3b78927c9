GO ?= go

.PHONY: build test vet staticcheck race bench trace-demo trace-stitch-demo serve-smoke serve-check lint-logs docs-api docs-api-check

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

# bench measures every bar of the bench table (bars_test.go) and writes
# BENCH_bars.json: the observability, query-stats, profiling and access-log
# overheads (< 3% each), the decision cache and plan compiler speedups,
# batch against single serving, the first streamed row, and the closure
# tier, unbarred. One more loop times the cells under ~10 ms: the compiled
# path's rows/s and allocs/op on E1, and the paper's theorems E3-E15, each
# row with an allocs/op bar, Cooper against the automaton and the two
# ablations unbarred. Takes about three minutes; fails if a bar's median
# over the rounds misses it.
bench:
	BENCH=1 $(GO) test -run TestBenchBars -count=1 -timeout 20m -v .

# docs-api regenerates docs/API.md from the apiv1 wire types;
# docs-api-check (used by CI) verifies it is current.
docs-api:
	$(GO) run scripts/apidocgen.go

docs-api-check:
	$(GO) run scripts/apidocgen.go -check

# trace-demo records the E1 experiment (the §1.1 enumeration) with the
# flight recorder armed and writes a Chrome trace — load trace-e1.json in
# https://ui.perfetto.dev or chrome://tracing. It runs over nless, where
# the §1.1 loop asks the Cooper decider, so each row's span holds the
# Cooper eliminations it cost; over presburger one automaton answers the
# whole enumeration and the trace shows no Cooper span.
trace-demo:
	$(GO) run ./cmd/finq -trace-out trace-e1.json eval \
		-domain nless -mode enumerate -rows 32 \
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
