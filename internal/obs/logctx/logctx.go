// Package logctx makes the process's structured logs carry the request's
// identity: the W3C trace ID (internal/obs/tracectx) that finqd's
// middleware adopts from a caller's `traceparent`, or mints as a fresh
// root, and stores in the context.Context the evaluation core threads end
// to end. slog records written through the context-aware handler gain a
// trace_id attribute, the same ID that spans, exemplars, tail captures and
// profile captures carry, so one grep joins them all.
package logctx

import (
	"context"
	"fmt"
	"io"
	"log/slog"

	"repro/internal/obs/tracectx"
)

// Handler is a slog.Handler that injects the context's trace ID as a
// trace_id attribute on every record, then delegates to the inner
// handler. Records logged without a trace position on their context pass
// through unchanged.
type Handler struct {
	inner slog.Handler
}

// NewHandler wraps an slog handler with trace-ID injection.
func NewHandler(inner slog.Handler) Handler { return Handler{inner: inner} }

// Enabled implements slog.Handler.
func (h Handler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler, adding trace_id from the context.
func (h Handler) Handle(ctx context.Context, r slog.Record) error {
	if tc, ok := tracectx.From(ctx); ok {
		r.AddAttrs(slog.String("trace_id", tc.TraceID.String()))
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

// NewLogger builds a trace-ID-aware logger writing to w in the given
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
