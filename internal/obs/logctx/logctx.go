// Package logctx gives every request an identity and makes the process's
// structured logs carry it. It is the glue between the three observability
// surfaces that PR 5 correlates: a request ID minted here (or honored from
// a client's X-Request-Id) is stored in the context.Context that the
// evaluation core already threads end to end, and
//
//   - slog records written through the context-aware handler gain a
//     request_id attribute automatically;
//   - obs spans started with obs.StartSpanCtx attach the ID as a trace
//     argument, so the flight recorder's events (and the exported Chrome
//     trace) can be filtered down to one request's timeline;
//   - the finqd access log and slow-query captures key off the same ID.
//
// The package deliberately depends on nothing but the standard library, so
// internal/obs (and everything instrumented by it) can import it without
// cycles.
package logctx

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
)

// ctxKey is the private context key for the request ID.
type ctxKey struct{}

// MaxIDLen bounds accepted request IDs; longer client-supplied values are
// replaced rather than truncated, so an ID seen anywhere is an ID that was
// honored everywhere.
const MaxIDLen = 64

// WithRequestID returns a context carrying the request ID. An empty id
// returns ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestID returns the request ID carried by ctx, or "" when absent. A
// nil context is safe.
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// idCounter disambiguates IDs if the random source ever fails; it also
// makes fallback IDs unique within the process.
var idCounter atomic.Int64

// NewRequestID mints a fresh request ID: 16 hex characters of
// crypto/rand entropy, "req-<n>" if the random source is unavailable.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", idCounter.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// ValidID reports whether a client-supplied request ID is acceptable:
// non-empty, at most MaxIDLen bytes, and drawn from [A-Za-z0-9._-] so it
// is safe to echo into headers, logs, and trace arguments.
func ValidID(id string) bool {
	if id == "" || len(id) > MaxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Handler is a slog.Handler that injects the context's request ID as a
// request_id attribute on every record, then delegates to the inner
// handler. Records logged without a request-scoped context pass through
// unchanged.
type Handler struct {
	inner slog.Handler
}

// NewHandler wraps an slog handler with request-ID injection.
func NewHandler(inner slog.Handler) Handler { return Handler{inner: inner} }

// Enabled implements slog.Handler.
func (h Handler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler, adding request_id from the context.
func (h Handler) Handle(ctx context.Context, r slog.Record) error {
	if id := RequestID(ctx); id != "" {
		r.AddAttrs(slog.String("request_id", id))
	}
	return h.inner.Handle(ctx, r)
}

// WithAttrs implements slog.Handler.
func (h Handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return Handler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h Handler) WithGroup(name string) slog.Handler {
	return Handler{inner: h.inner.WithGroup(name)}
}

// ParseLevel maps the -log-level flag values onto slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("-log-level: want debug|info|warn|error, got %q", s)
}

// NewLogger builds a request-ID-aware logger writing to w in the given
// format ("text" or "json", the -log-format values) at the given level.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	var inner slog.Handler
	switch format {
	case "", "text":
		inner = slog.NewTextHandler(w, opts)
	case "json":
		inner = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("-log-format: want text|json, got %q", format)
	}
	return slog.New(NewHandler(inner)), nil
}

// Setup configures the process-wide default logger (slog.SetDefault) from
// the -log-level and -log-format flag values. The CLIs call this through
// cliutil.Setup, so finq, finqd, tmrun, safety, and qe all emit uniform
// structured logs.
func Setup(w io.Writer, levelStr, format string) error {
	level, err := ParseLevel(levelStr)
	if err != nil {
		return err
	}
	logger, err := NewLogger(w, level, format)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	return nil
}
