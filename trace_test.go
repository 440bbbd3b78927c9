package finq

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/obs/trace"
	"repro/internal/obs/trace/tracetest"
)

// TestTracedEnumerationExportsValidChrome is the end-to-end trace check:
// arm the flight recorder, run an E1-style enumeration plus a profiled
// evaluation through the public facade, export the dump as a Chrome
// trace, and validate it structurally (JSON array, B/E/X/i phases only,
// one pid, balanced per-tid span nesting).
func TestTracedEnumerationExportsValidChrome(t *testing.T) {
	trace.Arm(1 << 12)
	defer trace.Disarm()
	d := MustLookup("presburger")
	st := NewState(MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", Nat(3)); err != nil {
		t.Fatal(err)
	}
	f, err := d.Parse("exists y. (R(y) & lt(x, y))")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(context.Background(), Request{Domain: d.Name, State: st, Formula: f, Mode: ModeEnumerate})
	if err != nil {
		t.Fatal(err)
	}
	if ans := res.Answer; !ans.Complete || ans.Rows.Len() != 3 {
		t.Fatalf("enumeration: %d rows, complete=%v", ans.Rows.Len(), ans.Complete)
	}
	eq := MustLookup("eq")
	est := NewState(MustScheme(map[string]int{"F": 2}))
	if err := est.Insert("F", Word("adam"), Word("abel")); err != nil {
		t.Fatal(err)
	}
	ef, err := eq.Parse("exists y. F(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(context.Background(), Request{Domain: eq.Name, State: est, Formula: ef, Profile: true}); err != nil {
		t.Fatal(err)
	}
	trace.Disarm()
	events := trace.Dump()
	if len(events) == 0 {
		t.Fatal("traced run recorded no events")
	}
	var names []string
	for _, e := range events {
		names = append(names, e.Name)
	}
	for _, want := range []string{"query.enumerate", "query.explain"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace holds no %q events (got %v)", want, names)
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	tracetest.ValidateChrome(t, buf.Bytes())
}

// TestCLISetupTraceOut drives the shared CLI bootstrap end to end: Setup
// strips the global flags and arms the recorder, work happens, finish
// writes a structurally valid Chrome trace to the requested file.
func TestCLISetupTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	rest, _, finish, err := cliutil.Setup("test", []string{"eval", "-trace-out", out, "-domain", "eq", "x = x"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"eval", "-domain", "eq", "x = x"}; len(rest) != len(want) {
		t.Fatalf("rest = %v, want %v", rest, want)
	} else {
		for i := range want {
			if rest[i] != want[i] {
				t.Fatalf("rest = %v, want %v", rest, want)
			}
		}
	}
	if !trace.Armed() {
		t.Fatal("-trace-out did not arm the recorder")
	}
	d := MustLookup("eq")
	st := NewState(MustScheme(map[string]int{"F": 2}))
	if err := st.Insert("F", Word("adam"), Word("abel")); err != nil {
		t.Fatal(err)
	}
	f, err := d.Parse("exists y. F(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Eval(context.Background(), Request{Domain: d.Name, State: st, Formula: f}); err != nil {
		t.Fatal(err)
	}
	finish()
	finish() // idempotent: a second call must not rewrite or error
	if trace.Armed() {
		t.Error("finish left the recorder armed")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	n := tracetest.ValidateChrome(t, data)
	if n == 0 {
		t.Error("trace file holds no events")
	}
}
