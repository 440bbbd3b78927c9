package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestDisarmedIsSilent: with the recorder disarmed, Begin returns 0 and
// nothing is recorded.
func TestDisarmedIsSilent(t *testing.T) {
	Disarm()
	// Len reflects whatever ring an earlier test's Arm left behind, so the
	// check is that the disarmed emissions add nothing to it.
	before := Len()
	if tid := Default().Begin("x", "test", Ident{}); tid != 0 {
		t.Fatalf("Begin while disarmed returned tid %d, want 0", tid)
	}
	Instant("y", "test")
	if n := Len() - before; n != 0 {
		t.Fatalf("disarmed emissions stored %d events", n)
	}
}

// TestBeginEndRoundtrip: an armed Begin/End pair lands in the ring in
// order, on the same goroutine id, with its args intact.
func TestBeginEndRoundtrip(t *testing.T) {
	Arm(16)
	defer Disarm()
	start := time.Now()
	tid := Default().Begin("op", "test", Ident{}, I64("size", 7))
	if tid == 0 {
		t.Fatal("Begin returned 0 while armed")
	}
	Default().End("op", "test", tid, start, Ident{}, Str("result", "ok"))
	evs := Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	b, e := evs[0], evs[1]
	if b.Phase != PhaseBegin || e.Phase != PhaseEnd {
		t.Fatalf("phases %c %c, want B E", b.Phase, e.Phase)
	}
	if b.TID != e.TID || b.TID != tid {
		t.Fatalf("tid mismatch: B=%d E=%d Begin()=%d", b.TID, e.TID, tid)
	}
	if b.Seq >= e.Seq {
		t.Fatalf("sequence not increasing: %d then %d", b.Seq, e.Seq)
	}
	if len(b.Args) != 1 || b.Args[0].Key != "size" || b.Args[0].Int != 7 {
		t.Fatalf("begin args %+v", b.Args)
	}
	if len(e.Args) != 1 || e.Args[0].Key != "result" || e.Args[0].Str != "ok" {
		t.Fatalf("end args %+v", e.Args)
	}
}

// TestRingWrap: emitting past capacity drops the oldest events, counts
// them, and keeps the newest in order.
func TestRingWrap(t *testing.T) {
	Arm(8)
	defer Disarm()
	for i := 0; i < 20; i++ {
		Instant("tick", "test", I64("i", int64(i)))
	}
	if got := Dropped(); got != 12 {
		t.Fatalf("dropped %d, want 12", got)
	}
	evs := Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d, want 8", len(evs))
	}
	for j, e := range evs {
		if want := int64(12 + j); e.Args[0].Int != want {
			t.Fatalf("slot %d holds i=%d, want %d", j, e.Args[0].Int, want)
		}
	}
}

// TestSlowLogSurvivesWrap: a slow End event evicted from the ring is
// retained in the slow-op log and re-merged, in sequence order, by Dump.
func TestSlowLogSurvivesWrap(t *testing.T) {
	Arm(8)
	defer Disarm()
	SetSlowThreshold(0) // everything with a duration qualifies
	defer SetSlowThreshold(time.Millisecond)
	start := time.Now().Add(-10 * time.Millisecond)
	tid := Default().Begin("slowop", "test", Ident{})
	Default().End("slowop", "test", tid, start, Ident{})
	for i := 0; i < 16; i++ { // wrap the ring well past the slow pair
		Instant("tick", "test")
	}
	slow := SlowEvents()
	if len(slow) != 1 || slow[0].Name != "slowop" || slow[0].Phase != PhaseEnd {
		t.Fatalf("slow log %+v, want one slowop End", slow)
	}
	dump := Dump()
	if len(dump) != 9 { // 8 ring slots + 1 evicted slow event
		t.Fatalf("dump holds %d events, want 9", len(dump))
	}
	if dump[0].Name != "slowop" {
		t.Fatalf("dump[0] = %q, want the evicted slow event first", dump[0].Name)
	}
	for i := 1; i < len(dump); i++ {
		if dump[i].Seq <= dump[i-1].Seq {
			t.Fatalf("dump out of order at %d: seq %d after %d", i, dump[i].Seq, dump[i-1].Seq)
		}
	}
}

// TestArmResets: re-arming clears prior events, drops, and sequence state.
func TestArmResets(t *testing.T) {
	Arm(4)
	defer Disarm()
	for i := 0; i < 10; i++ {
		Instant("tick", "test")
	}
	Arm(4)
	if Len() != 0 || Dropped() != 0 {
		t.Fatalf("after re-Arm: len=%d dropped=%d, want 0 0", Len(), Dropped())
	}
	Instant("fresh", "test")
	evs := Events()
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("after re-Arm first event %+v, want seq 1", evs)
	}
}

// TestWriteJSONL: one valid JSON object per line carrying the event fields.
func TestWriteJSONL(t *testing.T) {
	Arm(16)
	defer Disarm()
	start := time.Now()
	tid := Default().Begin("op", "test", Ident{})
	Default().End("op", "test", tid, start, Ident{}, I64("rows", 3))
	Instant("mark", "test", Str("kind", "probe"))
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, Events()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if lines[0]["ph"] != "B" || lines[1]["ph"] != "E" || lines[2]["ph"] != "i" {
		t.Fatalf("phases %v %v %v", lines[0]["ph"], lines[1]["ph"], lines[2]["ph"])
	}
	if args, ok := lines[1]["args"].(map[string]any); !ok || args["rows"] != float64(3) {
		t.Fatalf("end args %v", lines[1]["args"])
	}
}

// TestWriteChromeStructure validates the Chrome trace-event export
// structurally: a well-formed JSON array whose events all use the B/E/X/i
// phases, share one pid, X events carry durations, and per-tid B/E nesting
// stays balanced. The walk mirrors tracetest.ValidateChrome, restated here
// because the trace package cannot import its own test helper package
// without a cycle.
func TestWriteChromeStructure(t *testing.T) {
	Arm(64)
	defer Disarm()
	outer := time.Now()
	tid := Default().Begin("outer", "test", Ident{})
	inner := time.Now()
	tid2 := Default().Begin("inner", "test", Ident{})
	Instant("mark", "test")
	Default().End("inner", "test", tid2, inner, Ident{})
	Default().End("outer", "test", tid, outer, Ident{}, I64("rows", 2))
	var buf bytes.Buffer
	if err := WriteChrome(&buf, Dump()); err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name  string `json:"name"`
		Phase string `json:"ph"`
		TS    int64  `json:"ts"`
		Dur   *int64 `json:"dur"`
		PID   int64  `json:"pid"`
		TID   int64  `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("export is not a JSON array: %v", err)
	}
	if len(evs) != 5 {
		t.Fatalf("exported %d events, want 5", len(evs))
	}
	stacks := make(map[int64][]string)
	for i, e := range evs {
		if e.PID != ChromePID {
			t.Errorf("event %d pid %d, want %d", i, e.PID, ChromePID)
		}
		if e.TS < 0 {
			t.Errorf("event %d: negative ts %d", i, e.TS)
		}
		switch e.Phase {
		case "B":
			stacks[e.TID] = append(stacks[e.TID], e.Name)
		case "E":
			st := stacks[e.TID]
			if len(st) == 0 || st[len(st)-1] != e.Name {
				t.Fatalf("event %d: E %q does not close the open span (stack %v)", i, e.Name, st)
			}
			stacks[e.TID] = st[:len(st)-1]
		case "X":
			if e.Dur == nil {
				t.Errorf("event %d: X %q without dur", i, e.Name)
			}
		case "i":
		default:
			t.Errorf("event %d: unexpected phase %q", i, e.Phase)
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Errorf("tid %d ends with unclosed spans %s", tid, strings.Join(st, ", "))
		}
	}
}

// TestWriteExport covers the one body both /debug/trace/export routes
// serve: each format's content type and shape, the unanchored epoch of a
// never-armed recorder, and ErrUnknownFormat with nothing written.
func TestWriteExport(t *testing.T) {
	rec := NewRecorder()
	for _, c := range []struct{ format, ctype, want string }{
		{"", "application/json", `"resourceSpans"`},
		{"jsonl", "application/x-ndjson", `{"finq_trace":1,"process":"svc"}`},
		{"chrome", "application/json", "["},
	} {
		w := httptest.NewRecorder()
		if err := WriteExport(w, rec, "svc", c.format); err != nil {
			t.Fatalf("format %q: %v", c.format, err)
		}
		if got := w.Header().Get("Content-Type"); got != c.ctype {
			t.Errorf("format %q: content type %q, want %q", c.format, got, c.ctype)
		}
		if !strings.Contains(w.Body.String(), c.want) {
			t.Errorf("format %q: body %q misses %q", c.format, w.Body.String(), c.want)
		}
	}
	w := httptest.NewRecorder()
	if err := WriteExport(w, rec, "svc", "xml"); !errors.Is(err, ErrUnknownFormat) || w.Body.Len() != 0 {
		t.Errorf("format xml: err %v, body %q; want ErrUnknownFormat and no body", err, w.Body.String())
	}
}
