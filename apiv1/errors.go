package apiv1

// Error is the uniform JSON error body, carried under the "error" key of
// ErrorEnvelope on every non-2xx response (429 sheds and panic 500s
// included) and inline on failed batch items. Code is machine-readable
// from the closed set below; Message is for humans; TraceID lets a client
// quote the failing request and the operator grep logs and traces for it.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
	// TraceID is the request's W3C trace ID (32 lowercase hex chars),
	// matching the `traceparent` response header, the access log's
	// trace_id, and the flight-recorder events — one grep correlates all
	// of them. Absent on batch-item errors, which live inside an
	// identified response already.
	TraceID string `json:"trace_id,omitempty"`
}

// Error implements the error interface, so a decoded wire error can flow
// through Go error handling unchanged.
func (e *Error) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return e.Code + ": " + e.Message
}

// ErrorEnvelope is every error response's body:
//
//	{"error": {"code": "bad_request", "message": "...", "trace_id": "..."}}
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// The closed set of machine-readable error codes. The set is closed so
// clients can switch on codes exhaustively and tests can assert no
// handler mints an ad-hoc one.
const (
	// CodeBadRequest: the request body or parameters are malformed — bad
	// JSON, unknown fields, an unknown domain, a formula that does not
	// parse, a bad state, or stream negotiation on a non-enumerable mode.
	CodeBadRequest = "bad_request"
	// CodeNotFound: the identified resource (a capture, a tail sample)
	// does not exist.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeConflict: the operation is already in flight (profile capture).
	CodeConflict = "conflict"
	// CodePayloadTooLarge: the request body exceeds the configured limit.
	CodePayloadTooLarge = "payload_too_large"
	// CodeEvalFailed: the request was well-formed but the evaluation,
	// decision, or elimination failed (a 422).
	CodeEvalFailed = "eval_failed"
	// CodeOverCapacity: the worker pool and queue are full; the request
	// was shed with 429. Retry with backoff.
	CodeOverCapacity = "over_capacity"
	// CodeDeadline: the per-request or per-batch deadline expired before
	// the work finished: a 503 when it stopped a decision, an elimination
	// or a safety analysis (an evaluation it stops answers with the rows
	// found so far instead), and batch items past the cutoff.
	CodeDeadline = "deadline"
	// CodeClientGone: the client disconnected while the request was
	// queued or streaming; nobody is listening for the answer.
	CodeClientGone = "client_gone"
	// CodeUnavailable: the service cannot take the request now (draining,
	// or a non-deadline 503).
	CodeUnavailable = "unavailable"
	// CodeInternal: a handler panic or another server-side failure.
	CodeInternal = "internal"
)

// ErrorCodes returns the closed code set. Tests assert every wire error
// carries one of these; the docs generator lists them.
func ErrorCodes() []string {
	return []string{
		CodeBadRequest,
		CodeNotFound,
		CodeMethodNotAllowed,
		CodeConflict,
		CodePayloadTooLarge,
		CodeEvalFailed,
		CodeOverCapacity,
		CodeDeadline,
		CodeClientGone,
		CodeUnavailable,
		CodeInternal,
	}
}

// ValidCode reports whether code is in the closed set.
func ValidCode(code string) bool {
	for _, c := range ErrorCodes() {
		if c == code {
			return true
		}
	}
	return false
}
