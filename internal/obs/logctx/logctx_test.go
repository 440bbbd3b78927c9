package logctx

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs/tracectx"
)

// TestHandlerInjectsTraceID: a record logged under a context carrying a
// trace position gains trace_id; one logged without passes through
// untouched.
func TestHandlerInjectsTraceID(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	tc := tracectx.NewRoot()
	ctx := tracectx.With(context.Background(), tc)
	logger.InfoContext(ctx, "with id")
	logger.Info("without id")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 log lines, got %d: %s", len(lines), buf.String())
	}
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if want := tc.TraceID.String(); first["trace_id"] != want {
		t.Errorf("request-scoped record: trace_id = %v, want %s", first["trace_id"], want)
	}
	if _, present := second["trace_id"]; present {
		t.Errorf("plain record should carry no trace_id: %v", second)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
	if _, err := NewLogger(&bytes.Buffer{}, slog.LevelInfo, "yaml"); err == nil {
		t.Error("NewLogger accepted a bad format")
	}
}

// TestHandlerConcurrent hammers one logger from many goroutines with
// distinct trace IDs; under -race this checks the handler chain is safe,
// and afterwards every line must be intact JSON with its own ID.
func TestHandlerConcurrent(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	locked := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	logger, err := NewLogger(locked, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := tracectx.With(context.Background(), tracectx.NewRoot())
			logger.InfoContext(ctx, "concurrent")
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != n {
		t.Fatalf("want %d lines, got %d", n, len(lines))
	}
	ids := map[string]bool{}
	for _, l := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("corrupt log line %q: %v", l, err)
		}
		id, _ := rec["trace_id"].(string)
		if id == "" || ids[id] {
			t.Fatalf("missing or duplicate trace_id in %q", l)
		}
		ids[id] = true
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
