package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// ErrUnknownFormat is WriteExport's answer to a format it does not know;
// nothing has been written to the response then.
var ErrUnknownFormat = errors.New("trace: unknown export format (want otlp, jsonl, or chrome)")

// WriteExport serves the body of a /debug/trace/export route: rec's
// complete retained record (Dump) in the format a ?format= query names,
// with its content type set:
//
//	otlp    (or "") OTLP/JSON resource spans under the process name
//	jsonl   the JSONL dump with a metadata header line (process name and
//	        epoch), the input `finq trace stitch` merges
//	chrome  the Chrome trace-event array, loadable in Perfetto directly
//
// The export is a read: it does not arm, disarm or reset the recorder.
func WriteExport(w http.ResponseWriter, rec *Recorder, process, format string) error {
	switch format {
	case "", "otlp":
		w.Header().Set("Content-Type", "application/json")
		return WriteOTLP(w, process, rec.Epoch(), rec.Dump())
	case "jsonl":
		// A never-armed recorder has a zero epoch, whose UnixNano would be
		// a nonsense negative anchor; 0 means "not anchored" to stitch.
		var epochNanos int64
		if epoch := rec.Epoch(); !epoch.IsZero() {
			epochNanos = epoch.UnixNano()
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		return WriteJSONLMeta(w, Meta{Process: process, EpochUnixNano: epochNanos}, rec.Dump())
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		return WriteChrome(w, rec.Dump())
	}
	return ErrUnknownFormat
}

// Meta is the optional first line of a JSONL dump, identifying the process
// that wrote it and anchoring its relative timestamps to the wall clock so
// dumps from several processes can be stitched onto one timeline.
type Meta struct {
	// FinqTrace marks the line as dump metadata (format version, ≥1).
	FinqTrace int `json:"finq_trace"`
	// Process names the emitting process (service name, shard label).
	Process string `json:"process,omitempty"`
	// EpochUnixNano is the recorder's arming instant on the wall clock;
	// every event's ts_us is relative to it.
	EpochUnixNano int64 `json:"epoch_unix_ns,omitempty"`
}

// EventJSON is the one JSON form of an Event: a line of the JSONL dump and
// an event of a /debug/slow tail capture. It is flat, grep- and
// jq-friendly; the trace/span/parent fields are the W3C lowercase-hex
// IDs, present only on events recorded with an identity.
type EventJSON struct {
	Seq    int64          `json:"seq"`
	Phase  string         `json:"ph"`
	Name   string         `json:"name"`
	Cat    string         `json:"cat,omitempty"`
	TSUS   int64          `json:"ts_us"`
	DurUS  int64          `json:"dur_us,omitempty"`
	TID    int64          `json:"tid"`
	Trace  string         `json:"trace,omitempty"`
	Span   string         `json:"span,omitempty"`
	Parent string         `json:"parent,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
}

// JSON renders the event in its JSON form.
func (e Event) JSON() EventJSON {
	return EventJSON{
		Seq:    e.Seq,
		Phase:  string(e.Phase),
		Name:   e.Name,
		Cat:    e.Cat,
		TSUS:   e.TS,
		DurUS:  e.Dur,
		TID:    e.TID,
		Trace:  e.Trace,
		Span:   e.Span,
		Parent: e.Parent,
		Args:   argsMap(e.Args),
	}
}

// argsMap renders an event's args for JSON output.
func argsMap(args []Arg) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		m[a.Key] = a.Value()
	}
	return m
}

// WriteJSONL writes the events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if err := writeJSONLBody(bw, events); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteJSONLMeta writes a metadata header line followed by the events —
// the dump format `finq trace stitch` consumes. The meta line carries the
// process name and the recorder's epoch so N dumps align on one timeline.
func WriteJSONLMeta(w io.Writer, meta Meta, events []Event) error {
	bw := bufio.NewWriter(w)
	if meta.FinqTrace <= 0 {
		meta.FinqTrace = 1
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	if err := writeJSONLBody(bw, events); err != nil {
		return err
	}
	return bw.Flush()
}

func writeJSONLBody(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e.JSON()); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL dump back into events, accepting both the bare
// format (WriteJSONL) and the metadata-headed format (WriteJSONLMeta); the
// returned Meta is the zero value when the dump has no header. Blank lines
// are skipped. Args round-trip with keys sorted (emission order is not
// recorded in JSON objects); float-free int values are restored as ints.
func ReadJSONL(r io.Reader) (Meta, []Event, error) {
	var meta Meta
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	first := true
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if first {
			first = false
			var probe struct {
				FinqTrace int `json:"finq_trace"`
			}
			if err := json.Unmarshal(raw, &probe); err == nil && probe.FinqTrace > 0 {
				if err := json.Unmarshal(raw, &meta); err != nil {
					return Meta{}, nil, fmt.Errorf("trace: bad meta line: %w", err)
				}
				continue
			}
		}
		var je EventJSON
		if err := json.Unmarshal(raw, &je); err != nil {
			return Meta{}, nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if len(je.Phase) != 1 {
			return Meta{}, nil, fmt.Errorf("trace: line %d: bad phase %q", line, je.Phase)
		}
		e := Event{
			Seq:    je.Seq,
			Phase:  Phase(je.Phase[0]),
			Name:   je.Name,
			Cat:    je.Cat,
			TS:     je.TSUS,
			Dur:    je.DurUS,
			TID:    je.TID,
			Trace:  je.Trace,
			Span:   je.Span,
			Parent: je.Parent,
		}
		if len(je.Args) > 0 {
			keys := make([]string, 0, len(je.Args))
			for k := range je.Args {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				switch v := je.Args[k].(type) {
				case string:
					e.Args = append(e.Args, Str(k, v))
				case float64:
					e.Args = append(e.Args, I64(k, int64(v)))
				case json.Number:
					n, _ := v.Int64()
					e.Args = append(e.Args, I64(k, n))
				default:
					e.Args = append(e.Args, Str(k, fmt.Sprint(v)))
				}
			}
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return Meta{}, nil, err
	}
	return meta, events, nil
}

// chromeEvent is one entry of the Chrome trace-event JSON array format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// understood by Perfetto and chrome://tracing. Timestamps are
// microseconds. ID and BindingPoint serve flow events ("s"/"f"), which draw
// the parent→child arrows between span lanes.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	PID   int64          `json:"pid"`
	TID   int64          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromePID is the process id stamped on every event of a single-process
// export; Stitch assigns each dump its own pid lane instead.
const ChromePID = 1

// chromeFromEvent renders one recorded event for the Chrome format under
// the given pid, shifting its timestamp by shift µs (used by Stitch to
// align process epochs).
func chromeFromEvent(e Event, pid, shift int64) chromeEvent {
	ce := chromeEvent{
		Name:  e.Name,
		Cat:   e.Cat,
		Phase: string(e.Phase),
		TS:    e.TS + shift,
		PID:   pid,
		TID:   e.TID,
		Args:  argsMap(e.Args),
	}
	if ce.Cat == "" {
		ce.Cat = "default"
	}
	if e.Trace != "" {
		if ce.Args == nil {
			ce.Args = map[string]any{}
		}
		ce.Args["trace_id"] = e.Trace
		ce.Args["span_id"] = e.Span
		if e.Parent != "" {
			ce.Args["parent_id"] = e.Parent
		}
	}
	switch e.Phase {
	case PhaseInstant:
		ce.Scope = "t" // thread-scoped instant
	case PhaseEnd:
		if e.Dur > 0 {
			if ce.Args == nil {
				ce.Args = map[string]any{}
			}
			ce.Args["dur_us"] = e.Dur
		}
	}
	return ce
}

// spanSite locates a span's begin event for flow binding.
type spanSite struct {
	pid int64
	tid int64
	ts  int64
}

// flowPair emits the "s"→"f" flow arrow from a parent span's begin to a
// child span's begin. The flow id is the child's span ID (unique per edge).
func flowPair(childSpan string, parent, child spanSite) [2]chromeEvent {
	start := chromeEvent{
		Name: "trace", Cat: "flow", Phase: "s",
		TS: parent.ts, PID: parent.pid, TID: parent.tid, ID: childSpan,
	}
	finish := chromeEvent{
		Name: "trace", Cat: "flow", Phase: "f",
		TS: child.ts, PID: child.pid, TID: child.tid, ID: childSpan, BP: "e",
	}
	if finish.TS < start.TS {
		// Flows must not point backwards in time; clamp to the parent's
		// begin (clock skew across stitched processes).
		finish.TS = start.TS
	}
	return [2]chromeEvent{start, finish}
}

// crossFlows computes the flow arrows for every parent→child span edge
// whose two ends sit on different lanes (goroutines or processes): within
// a lane, B/E nesting already shows the hierarchy; across lanes, the arrow
// is the only link.
func crossFlows(begins map[string]spanSite, events []Event, pid, shift int64, out []chromeEvent) []chromeEvent {
	for _, e := range events {
		if e.Phase != PhaseBegin || e.Parent == "" || e.Span == "" {
			continue
		}
		parent, ok := begins[e.Parent]
		if !ok {
			continue
		}
		child := spanSite{pid: pid, tid: e.TID, ts: e.TS + shift}
		if parent.pid == child.pid && parent.tid == child.tid {
			continue
		}
		fp := flowPair(e.Span, parent, child)
		out = append(out, fp[0], fp[1])
	}
	return out
}

// indexBegins records where each identified span begins.
func indexBegins(begins map[string]spanSite, events []Event, pid, shift int64) {
	for _, e := range events {
		if e.Phase == PhaseBegin && e.Span != "" {
			begins[e.Span] = spanSite{pid: pid, tid: e.TID, ts: e.TS + shift}
		}
	}
}

// WriteChrome writes the events as a Chrome trace-event JSON array. For
// PhaseEnd events the recorded duration is carried in the args (the format
// keys duration off the matching 'B' event's timestamps), so nothing
// recorded is lost. Span identities are carried in the args, and
// parent→child edges that cross goroutines are drawn as flow arrows.
func WriteChrome(w io.Writer, events []Event) error {
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		out = append(out, chromeFromEvent(e, ChromePID, 0))
	}
	begins := make(map[string]spanSite)
	indexBegins(begins, events, ChromePID, 0)
	out = crossFlows(begins, events, ChromePID, 0, out)
	return writeChromeArray(w, out)
}

func writeChromeArray(w io.Writer, out []chromeEvent) error {
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
