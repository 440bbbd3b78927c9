package apiv1

// Endpoint describes one route of the service for the generated endpoint
// reference (docs/API.md). The table is data, not behavior: the server's
// mux is still the source of truth for routing, and the apidocgen check
// keeps the two from drifting by regenerating the docs from this table in
// CI.
type Endpoint struct {
	// Method is the HTTP method.
	Method string
	// Path is the route.
	Path string
	// Request names the request body type in this package ("" for GET
	// endpoints or bodies documented in Params).
	Request string
	// Response names the response body type in this package.
	Response string
	// Params documents query parameters or header negotiation.
	Params string
	// Doc is a short description.
	Doc string
}

// Endpoints returns the service's route table for documentation, /v1
// endpoints first. Keep in sync with internal/server.(*Server).Handler —
// the apiv1 round-trip tests and finqd -smoke cover every /v1 row.
func Endpoints() []Endpoint {
	return []Endpoint{
		{
			Method: "POST", Path: "/v1/eval",
			Request: "EvalRequest", Response: "EvalResponse",
			Params: "`?stream=1` or `Accept: application/x-ndjson` / `application/x-finq-frames` streams enumeration rows (see Streaming)",
			Doc:    "Evaluate a formula over a domain and state. Partial results (budget, deadline, cancellation) are 200s with `partial: true`, not errors.",
		},
		{
			Method: "POST", Path: "/v1/eval/batch",
			Request: "BatchRequest", Response: "BatchResponse",
			Doc: "Evaluate many queries against one shared state in one request, amortizing state parsing and the handler chain. Per-item status: a failed item carries an item-scoped error, the rest keep their results. The whole batch runs under one deadline.",
		},
		{
			Method: "POST", Path: "/v1/decide",
			Request: "DecideRequest", Response: "DecideResponse",
			Doc: "Decide a pure-domain sentence.",
		},
		{
			Method: "POST", Path: "/v1/qe",
			Request: "QERequest", Response: "QEResponse",
			Doc: "Quantifier-eliminate a formula.",
		},
		{
			Method: "POST", Path: "/v1/safety",
			Request: "SafetyRequest", Response: "SafetyResponse",
			Doc: "Relative-safety analysis: is the query's answer finite in this state?",
		},
		{
			Method: "GET", Path: "/v1/domains",
			Response: "DomainsResponse",
			Doc:      "List the registered domains.",
		},
		{
			Method: "GET", Path: "/v1/stats/queries",
			Response: "QueryStatsResponse",
			Params:   "`?by=latency|count|selectivity|allocs` orders the list; `?k=<n>` bounds it (default 20, `k=0` for all)",
			Doc:      "Per-query aggregates from the stats registry, top-K.",
		},
		{
			Method: "GET", Path: "/v1/slo",
			Response: "—",
			Doc:      "SLO burn-rate summary per endpoint objective (`{\"enabled\": false}` when no SLO is configured).",
		},
		{
			Method: "GET", Path: "/v1/version",
			Response: "VersionResponse",
			Doc:      "Build identity of the running binary.",
		},
		{
			Method: "GET", Path: "/healthz",
			Response: "Health",
			Doc:      "Liveness: 200 while the process serves HTTP, draining included.",
		},
		{
			Method: "GET", Path: "/readyz",
			Response: "Health",
			Doc:      "Readiness: 200 while accepting new work, 503 once a drain begins.",
		},
		{
			Method: "GET", Path: "/metrics",
			Response: "—",
			Doc:      "Prometheus exposition (also /debug/obs, /debug/pprof/).",
		},
		{
			Method: "GET", Path: "/debug/slow",
			Response: "—",
			Params:   "`?id=<trace id>` fetches the newest capture of that trace with its span subtree; without it, the capture index",
			Doc:      "Tail-sampled request captures (slow, errored, first-seen-query).",
		},
		{
			Method: "GET", Path: "/debug/trace/export",
			Response: "—",
			Params:   "`?format=otlp|jsonl|chrome` selects the encoding (default otlp)",
			Doc:      "The armed flight recorder's ring: OTLP/JSON resource spans, the stitchable JSONL dump (`finq trace stitch`), or a Chrome trace.",
		},
		{
			Method: "GET", Path: "/debug/queries",
			Response: "—",
			Params:   "`?by=…` as /v1/stats/queries",
			Doc:      "Per-query stats as a text table.",
		},
		{
			Method: "GET", Path: "/debug/profiles",
			Response: "—",
			Params:   "`?id=&kind=cpu|heap` downloads raw pprof bytes",
			Doc:      "Triggered CPU+heap profile captures.",
		},
		{
			Method: "POST", Path: "/debug/profiles/capture",
			Response: "—",
			Params:   "`?dur_ms=<n>` bounds the CPU window",
			Doc:      "On-demand bounded CPU+heap capture.",
		},
	}
}
