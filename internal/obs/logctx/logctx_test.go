package logctx

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestRequestIDRoundTrip(t *testing.T) {
	ctx := WithRequestID(context.Background(), "abc-123")
	if got := RequestID(ctx); got != "abc-123" {
		t.Fatalf("RequestID = %q, want abc-123", got)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("RequestID(empty ctx) = %q, want \"\"", got)
	}
	// A nil context carries no ID.
	if got := RequestID(nil); got != "" {
		t.Fatalf("RequestID(nil) = %q, want \"\"", got)
	}
	if ctx2 := WithRequestID(context.Background(), ""); RequestID(ctx2) != "" {
		t.Fatal("empty ID should not be stored")
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if !ValidID(id) {
			t.Fatalf("generated ID %q fails its own validation", id)
		}
		if seen[id] {
			t.Fatalf("duplicate generated ID %q", id)
		}
		seen[id] = true
	}
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"a", "req-1", "A_b.C-9", strings.Repeat("x", MaxIDLen)} {
		if !ValidID(ok) {
			t.Errorf("ValidID(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "has space", "new\nline", "héllo", strings.Repeat("x", MaxIDLen+1), `quote"id`} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true, want false", bad)
		}
	}
}

// TestHandlerInjectsRequestID: a record logged under a request-scoped
// context gains request_id; one logged without passes through untouched.
func TestHandlerInjectsRequestID(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := WithRequestID(context.Background(), "inject-me")
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
	if first["request_id"] != "inject-me" {
		t.Errorf("request-scoped record: request_id = %v, want inject-me", first["request_id"])
	}
	if _, present := second["request_id"]; present {
		t.Errorf("plain record should carry no request_id: %v", second)
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
// distinct request IDs; under -race this checks the handler chain is safe,
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
			ctx := WithRequestID(context.Background(), NewRequestID())
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
		id, _ := rec["request_id"].(string)
		if id == "" || ids[id] {
			t.Fatalf("missing or duplicate request_id in %q", l)
		}
		ids[id] = true
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
