// Package tracectx gives a computation a distributed-trace identity and
// carries it on context.Context. The trace ID is also a finqd request's
// only identity: logs, spans, exemplars and captures all name it.
//
// The identity is the W3C Trace Context model (https://www.w3.org/TR/trace-context/):
// a 128-bit trace ID naming the whole causal tree, a 64-bit span ID naming
// the current position in it, a sampled flag, and an opaque, bounded
// tracestate. The wire form is the `traceparent` header
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//	^^ ^^^^^^^^^^^^^^^^ trace-id ^^^^^^ ^^ span-id ^^^^^^ ^^ flags
//
// which finqd's middleware extracts from requests and echoes on responses,
// the typed client injects on outbound calls, and cmd/finqload mints fresh
// per synthetic request — so one trace ID survives a process boundary and
// two finqd rings can be stitched into a single causal picture.
//
// Parsing is deliberately total: a malformed, truncated, all-zero, or
// future-versioned header is rejected by returning ok=false, and the
// caller mints a fresh root instead. A bad peer can cost us its trace
// linkage, never an error path.
//
// The package depends on nothing but the standard library, so internal/obs
// and its subpackages can import it without cycles.
package tracectx

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	mrand "math/rand/v2"
	"sync/atomic"
)

// TraceID is the 128-bit identity of one causal tree. The all-zero value
// is invalid per the W3C spec and doubles as "no identity" here.
type TraceID [16]byte

// SpanID is the 64-bit identity of one span within a trace. All-zero is
// invalid.
type SpanID [8]byte

// IsZero reports the invalid all-zero trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the invalid all-zero span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the trace ID as 32 lowercase hex characters. The digits
// go through a stack buffer, so the string is the only allocation.
func (t TraceID) String() string {
	var b [32]byte
	return string(appendHex(b[:0], t[:]))
}

// String renders the span ID as 16 lowercase hex characters.
func (s SpanID) String() string {
	var b [16]byte
	return string(appendHex(b[:0], s[:]))
}

// MaxTracestateLen bounds the accepted `tracestate` header. The W3C spec
// allows up to 32 list members; rather than parse the list we cap the raw
// bytes — an oversized value is dropped (the spec permits discarding),
// never truncated, so what we forward is exactly what we received.
const MaxTracestateLen = 512

// TC is one position in a distributed trace: the trace identity plus the
// current span (the parent of any child minted next).
type TC struct {
	// TraceID names the causal tree; constant across all spans of a trace.
	TraceID TraceID
	// SpanID is the current span: children minted with Child get it as
	// their parent, and outbound `traceparent` headers carry it.
	SpanID SpanID
	// Sampled is the W3C sampled flag (01). Everything this repository
	// records is sampled; the flag is preserved for foreign traces.
	Sampled bool
	// State is the raw `tracestate` header, forwarded opaquely ("" when
	// absent or oversized).
	State string
}

// Valid reports whether the TC carries a usable identity (non-zero trace
// and span IDs).
func (tc TC) Valid() bool { return !tc.TraceID.IsZero() && !tc.SpanID.IsZero() }

// Traceparent renders the TC as a version-00 `traceparent` header value.
func (tc TC) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = appendHex(b, tc.TraceID[:])
	b = append(b, '-')
	b = appendHex(b, tc.SpanID[:])
	if tc.Sampled {
		b = append(b, "-01"...)
	} else {
		b = append(b, "-00"...)
	}
	return string(b)
}

func appendHex(dst, src []byte) []byte {
	const hexdigits = "0123456789abcdef"
	for _, c := range src {
		dst = append(dst, hexdigits[c>>4], hexdigits[c&0xf])
	}
	return dst
}

// Child returns the TC one level down: same trace, a freshly minted span
// ID, the receiver's span as the implicit parent. Sampling and tracestate
// are inherited.
func (tc TC) Child() TC {
	tc.SpanID = NewSpanID()
	return tc
}

// rootFallback disambiguates minted IDs if the crypto source ever fails.
var rootFallback atomic.Uint64

// NewRoot mints a fresh sampled root: a random 128-bit trace ID and a
// random 64-bit span ID.
func NewRoot() TC {
	var tc TC
	if _, err := rand.Read(tc.TraceID[:]); err != nil {
		// Keep the process observable even without an entropy source: a
		// counter-derived ID is unique within the process, which is what the
		// flight recorder needs.
		binary.BigEndian.PutUint64(tc.TraceID[8:], rootFallback.Add(1))
		tc.TraceID[0] = 0xfa
	}
	tc.SpanID = NewSpanID()
	tc.Sampled = true
	return tc
}

// NewSpanID mints a random non-zero 64-bit span ID. Span IDs are minted
// once per span on the request path, so this uses math/rand/v2's
// goroutine-sharded generator (cryptographic strength buys nothing here;
// the W3C spec asks only for randomness).
func NewSpanID() SpanID {
	var s SpanID
	for {
		binary.BigEndian.PutUint64(s[:], mrand.Uint64())
		if !s.IsZero() {
			return s
		}
	}
}

// Parse parses `traceparent` (and optionally `tracestate`) header values.
// ok=false means the traceparent was absent or malformed — truncated, bad
// version, non-hex, or all-zero IDs — and the caller should mint a fresh
// root with NewRoot; parsing never fails with an error. Per the W3C spec a
// future version (anything but "ff") with the version-00 prefix shape is
// accepted by reading its first four fields.
func Parse(traceparent, tracestate string) (tc TC, ok bool) {
	// version "-" traceid "-" spanid "-" flags = 2+1+32+1+16+1+2 = 55.
	if len(traceparent) < 55 {
		return TC{}, false
	}
	if traceparent[2] != '-' || traceparent[35] != '-' || traceparent[52] != '-' {
		return TC{}, false
	}
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(traceparent[0:2])); err != nil {
		return TC{}, false
	}
	if ver[0] == 0xff {
		return TC{}, false // "ff" is forbidden by the spec
	}
	if ver[0] == 0 && len(traceparent) != 55 {
		return TC{}, false // version 00 is exactly 55 chars
	}
	if ver[0] > 0 && len(traceparent) > 55 && traceparent[55] != '-' {
		return TC{}, false // future versions may only append "-" fields
	}
	if hasUpper(traceparent[:55]) {
		return TC{}, false // the spec requires lowercase hex
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(traceparent[3:35])); err != nil {
		return TC{}, false
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(traceparent[36:52])); err != nil {
		return TC{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(traceparent[53:55])); err != nil {
		return TC{}, false
	}
	if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
		return TC{}, false
	}
	tc.Sampled = flags[0]&0x01 != 0
	if len(tracestate) > 0 && len(tracestate) <= MaxTracestateLen {
		tc.State = tracestate
	}
	return tc, true
}

func hasUpper(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'F' {
			return true
		}
	}
	return false
}

// ctxKey is the private context key for the TC.
type ctxKey struct{}

// With returns a context carrying the trace position. An invalid TC
// returns ctx unchanged, so callers can thread Parse results blindly.
func With(ctx context.Context, tc TC) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// From returns the trace position carried by ctx. A nil context is safe.
func From(ctx context.Context) (TC, bool) {
	if ctx == nil {
		return TC{}, false
	}
	tc, ok := ctx.Value(ctxKey{}).(TC)
	return tc, ok
}
