package runcfg

import (
	"context"
	"testing"
)

// TestFromNilSafe: absent or nil contexts yield the zero Config and nil
// Counts, which every reader treats as the default posture.
func TestFromNilSafe(t *testing.T) {
	t.Parallel()
	if cfg, n := From(nil); cfg != (Config{}) || n != nil {
		t.Fatalf("nil context: %+v, %v", cfg, n)
	}
	if cfg, n := From(context.Background()); cfg != (Config{}) || n != nil {
		t.Fatalf("context without a run: %+v, %v", cfg, n)
	}
}

// TestWithKeepsCounts: setting the Config keeps the Counts already on the
// context, and fresh Counts keep the Config.
func TestWithKeepsCounts(t *testing.T) {
	t.Parallel()
	off := Config{NoPlan: true, NoCache: true}
	ctx, n := WithCounts(With(context.Background(), off))
	if cfg, got := From(ctx); cfg != off || got != n {
		t.Fatalf("WithCounts dropped the Config: %+v, %p want %p", cfg, got, n)
	}
	if cfg, got := From(With(ctx, Config{NoProf: true})); cfg != (Config{NoProf: true}) || got != n {
		t.Fatalf("With dropped the Counts: %+v, %p want %p", cfg, got, n)
	}
	n.SetTier("algebra")
	if n.Tier() != "algebra" || (&Counts{}).Tier() != "" {
		t.Fatal("Tier does not report the last SetTier")
	}
}
