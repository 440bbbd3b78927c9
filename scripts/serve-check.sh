#!/bin/sh
# serve-check boots finqd on an ephemeral port and probes it from the
# outside, the way an orchestrator would: /healthz and /readyz must answer
# 200, and /metrics must emit a well-formed Prometheus exposition
# (validated by scripts/expocheck.go). The in-process coverage lives in
# `finqd -smoke`; this script covers the over-the-wire path with curl.
set -eu

GO="${GO:-go}"
tmp="$(mktemp -d)"
pid=""
cleanup() {
    if [ -n "$pid" ]; then
        kill -TERM "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$tmp/finqd" ./cmd/finqd
# Aggressive SLO windows so the burn-rate trip section below fires within
# seconds of deliberately slow traffic; harmless for the earlier probes
# (the quick eq eval stays under the 2ms latency objective).
"$tmp/finqd" -addr 127.0.0.1:0 \
    -slo-latency 2ms -slo-target 0.5 -slo-tick 250ms \
    -slo-fast 1s -slo-slow 2s -slo-burn 1.2 \
    -profile-dur 1s -profile-cooldown 1h -slow 5ms \
    2>"$tmp/finqd.log" &
pid=$!

# finqd announces its bound address on stderr once the listener is up.
addr=""
tries=0
while [ -z "$addr" ]; do
    addr="$(sed -n 's#.*serving on http://\([^ ]*\).*#\1#p' "$tmp/finqd.log" | head -n 1)"
    [ -n "$addr" ] && break
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "serve-check: finqd never announced its address" >&2
        cat "$tmp/finqd.log" >&2
        exit 1
    fi
    sleep 0.1
done
echo "serve-check: finqd up on $addr"

for path in /healthz /readyz; do
    code="$(curl -s -o "$tmp/body" -w '%{http_code}' "http://$addr$path")"
    if [ "$code" != 200 ]; then
        echo "serve-check: GET $path answered $code, want 200: $(cat "$tmp/body")" >&2
        exit 1
    fi
    echo "serve-check: GET $path 200 $(cat "$tmp/body")"
done

# One eval under a known trace ID (the caller's traceparent) seeds the RED
# latency histogram with an OpenMetrics exemplar; the exposition must
# carry it and still pass expocheck (which validates exemplar syntax on
# bucket lines).
trace_id=4bf92f3577b34da6a3ce929d0e0e4736
code="$(curl -s -o "$tmp/body" -w '%{http_code}' -H "traceparent: 00-$trace_id-00f067aa0ba902b7-01" \
    -d '{"domain": "eq", "state": {"relations": {"F": [["a", "b"]]}}, "formula": "exists y. F(x, y)"}' \
    "http://$addr/v1/eval")"
if [ "$code" != 200 ]; then
    echo "serve-check: POST /v1/eval answered $code, want 200: $(cat "$tmp/body")" >&2
    exit 1
fi
echo "serve-check: POST /v1/eval 200"

code="$(curl -s -o "$tmp/metrics.txt" -w '%{http_code}' "http://$addr/metrics")"
if [ "$code" != 200 ]; then
    echo "serve-check: GET /metrics answered $code, want 200" >&2
    exit 1
fi
if ! grep -q "trace_id=\"$trace_id\"" "$tmp/metrics.txt"; then
    echo "serve-check: /metrics misses the eval exemplar for trace $trace_id" >&2
    grep server_eval_latency_us_bucket "$tmp/metrics.txt" >&2 || true
    exit 1
fi
echo "serve-check: exemplar trace_id=$trace_id present on /metrics"
"$GO" run scripts/expocheck.go <"$tmp/metrics.txt"

# The per-query stats endpoint answers with the eval's aggregates.
code="$(curl -s -o "$tmp/stats.json" -w '%{http_code}' "http://$addr/v1/stats/queries?by=count")"
if [ "$code" != 200 ]; then
    echo "serve-check: GET /v1/stats/queries answered $code, want 200" >&2
    exit 1
fi
if ! grep -q '"evals"' "$tmp/stats.json"; then
    echo "serve-check: /v1/stats/queries misses the eval aggregates: $(cat "$tmp/stats.json")" >&2
    exit 1
fi
echo "serve-check: GET /v1/stats/queries 200 with aggregates"

# SLO burn-rate trip over the wire: deliberately slow enumerations (each
# well over the 2ms objective) push the eval latency burn past the trip
# threshold; the server must capture a CPU+heap profile pair on its own,
# list it on /debug/profiles, and serve the CPU payload by id as a
# profile `go tool pprof` accepts. The body is over zless, where the
# section 1.1 loop asks the Cooper decider for every row (tens of
# milliseconds a request); over presburger, nless or wordlex one automaton
# answers it in about a millisecond, under the objective.
slow_body='{"domain": "zless", "state": {"relations": {"R": [["5"]]}}, "formula": "~R(x)", "mode": "enumerate", "budget": {"rows": 60, "probe": 1073741824}}'
i=0
while [ "$i" -lt 24 ]; do
    curl -s -o /dev/null -d "$slow_body" "http://$addr/v1/eval"
    i=$((i + 1))
done
capture_id=""
tries=0
while [ -z "$capture_id" ]; do
    curl -s -o "$tmp/profiles.json" "http://$addr/debug/profiles"
    if grep -q '"reason":"slo:eval:latency"' "$tmp/profiles.json"; then
        capture_id="$(grep -o '"id":"prof-[0-9]*"' "$tmp/profiles.json" | head -n 1 | sed 's/.*"prof-/prof-/;s/"$//')"
        break
    fi
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "serve-check: SLO trip never produced a profile capture" >&2
        cat "$tmp/profiles.json" >&2
        grep 'slo' "$tmp/finqd.log" >&2 || true
        exit 1
    fi
    # Keep the burn above threshold while the engine ticks.
    curl -s -o /dev/null -d "$slow_body" "http://$addr/v1/eval"
    sleep 0.2
done
echo "serve-check: SLO trip captured $capture_id"

profile_out="${PROFILE_OUT:-$tmp/profile.pb.gz}"
code="$(curl -s -o "$profile_out" -w '%{http_code}' "http://$addr/debug/profiles?id=$capture_id&kind=cpu")"
if [ "$code" != 200 ] || [ ! -s "$profile_out" ]; then
    echo "serve-check: profile download answered $code (or empty payload)" >&2
    exit 1
fi
if ! "$GO" tool pprof -top "$profile_out" >"$tmp/pprof-top.txt" 2>&1; then
    echo "serve-check: go tool pprof rejected the downloaded profile:" >&2
    cat "$tmp/pprof-top.txt" >&2
    exit 1
fi
echo "serve-check: $capture_id CPU profile validates with go tool pprof -top:"
head -n 8 "$tmp/pprof-top.txt" | sed 's/^/serve-check:   /'

# The trip must also be visible on the SLO summary.
code="$(curl -s -o "$tmp/slo.json" -w '%{http_code}' "http://$addr/v1/slo")"
if [ "$code" != 200 ] || ! grep -q '"last_trip_unix_ms"' "$tmp/slo.json"; then
    echo "serve-check: GET /v1/slo answered $code without a recorded trip: $(cat "$tmp/slo.json")" >&2
    exit 1
fi
echo "serve-check: GET /v1/slo 200 with a recorded trip"

# Graceful shutdown: SIGTERM flips /readyz to 503 before the listener
# closes (bounded by finqd's -drain-grace window).
kill -TERM "$pid"
code="$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/readyz" || echo closed)"
case "$code" in
503 | closed) echo "serve-check: /readyz after SIGTERM: $code" ;;
*)
    echo "serve-check: /readyz after SIGTERM answered $code, want 503 (or a closed listener)" >&2
    exit 1
    ;;
esac
wait "$pid" || true
pid=""

echo "serve-check: ok"
