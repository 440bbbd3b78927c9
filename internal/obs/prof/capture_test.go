package prof

import (
	"bytes"
	"compress/gzip"
	"context"
	"testing"
	"time"
)

// TestCaptureNow runs a synchronous capture and checks the pair lands in
// the ring with list/get/download access.
func TestCaptureNow(t *testing.T) {
	s := NewStore(StoreConfig{Ring: 4, CPUDuration: 50 * time.Millisecond})
	c, err := s.CaptureNow(Capture{Reason: "manual", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "prof-0001" || c.Reason != "manual" || c.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("capture metadata wrong: %+v", c)
	}
	if c.CPUBytes <= 0 || c.HeapBytes <= 0 {
		t.Fatalf("empty payloads: cpu=%d heap=%d", c.CPUBytes, c.HeapBytes)
	}
	if c.DurationMS < 40 {
		t.Fatalf("capture window too short: %dms", c.DurationMS)
	}
	list := s.List()
	if len(list) != 1 || list[0].ID != "prof-0001" {
		t.Fatalf("list wrong: %+v", list)
	}
	if got, ok := s.Get("prof-0001"); !ok || got.Reason != "manual" {
		t.Fatalf("get wrong: %+v ok=%v", got, ok)
	}
	cpu, ok := s.Payload("prof-0001", KindCPU)
	if !ok || len(cpu) != c.CPUBytes {
		t.Fatalf("cpu payload wrong: ok=%v len=%d want=%d", ok, len(cpu), c.CPUBytes)
	}
	// The CPU payload must be a parseable pprof profile.
	if _, err := SampleLabels(cpu); err != nil {
		t.Fatalf("captured CPU profile does not parse: %v", err)
	}
	if heap, ok := s.Payload("prof-0001", KindHeap); !ok || len(heap) == 0 {
		t.Fatal("heap payload missing")
	}
	if _, ok := s.Payload("prof-0001", "goroutine"); ok {
		t.Fatal("unknown kind served a payload")
	}
	if _, ok := s.Payload("prof-9999", KindCPU); ok {
		t.Fatal("unknown id served a payload")
	}
}

// TestCaptureRingEviction: the ring keeps the newest N captures.
func TestCaptureRingEviction(t *testing.T) {
	s := NewStore(StoreConfig{Ring: 2, CPUDuration: 10 * time.Millisecond})
	for i := 0; i < 3; i++ {
		if _, err := s.CaptureNow(Capture{Reason: "manual"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != "prof-0002" || list[1].ID != "prof-0003" {
		t.Fatalf("eviction wrong: %+v", list)
	}
	if _, ok := s.Get("prof-0001"); ok {
		t.Fatal("evicted capture still retrievable")
	}
}

// TestTriggerGates: automatic triggers respect the disarm gate, the
// per-reason cooldown, and the single-flight latch; manual CaptureNow
// refuses only while a capture is in flight.
func TestTriggerGates(t *testing.T) {
	s := NewStore(StoreConfig{Ring: 4, CPUDuration: 150 * time.Millisecond, Cooldown: time.Hour})

	s.Disarm()
	if s.Armed() {
		t.Fatal("still armed after Disarm")
	}
	if started, why := s.Trigger(Capture{Reason: "slo:eval:latency"}); started || why != "disarmed" {
		t.Fatalf("disarmed trigger: started=%v why=%q", started, why)
	}
	s.Arm()

	started, why := s.Trigger(Capture{Reason: "slo:eval:latency"})
	if !started {
		t.Fatalf("armed trigger refused: %q", why)
	}
	// Same reason within the cooldown: suppressed.
	if started, why := s.Trigger(Capture{Reason: "slo:eval:latency"}); started || why != "cooldown" {
		t.Fatalf("cooldown not enforced: started=%v why=%q", started, why)
	}
	// Different reason, but a capture is in flight: busy (CPU profiling is
	// process-global).
	if started, why := s.Trigger(Capture{Reason: "slo:decide:errors"}); started || why != "busy" {
		t.Fatalf("single-flight not enforced: started=%v why=%q", started, why)
	}
	if _, err := s.CaptureNow(Capture{Reason: "manual"}, 0); err == nil {
		t.Fatal("CaptureNow succeeded while a trigger capture was in flight")
	}
	// Wait for the async capture to land.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.List()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("async capture never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.List()[0]; got.Reason != "slo:eval:latency" {
		t.Fatalf("async capture metadata wrong: %+v", got)
	}
	// Manual capture ignores the cooldown once the flight is over.
	if _, err := s.CaptureNow(Capture{Reason: "manual"}, 20*time.Millisecond); err != nil {
		t.Fatalf("manual capture after cooldown-reason: %v", err)
	}
}

// --- pprof parser unit tests against a hand-encoded profile ---

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func appendField(b []byte, field int, wire int, v uint64, sub []byte) []byte {
	b = appendUvarint(b, uint64(field)<<3|uint64(wire))
	if wire == 2 {
		b = appendUvarint(b, uint64(len(sub)))
		return append(b, sub...)
	}
	return appendUvarint(b, v)
}

// encodeProfile builds a minimal gzipped profile.proto: a string table and
// one sample per label map.
func encodeProfile(t *testing.T, table []string, sampleLabels []map[uint64]uint64) []byte {
	t.Helper()
	var msg []byte
	for _, lbls := range sampleLabels {
		var sample []byte
		for k, v := range lbls {
			var label []byte
			label = appendField(label, 1, 0, k, nil) // key index
			label = appendField(label, 2, 0, v, nil) // str index
			sample = appendField(sample, 3, 2, 0, label)
		}
		msg = appendField(msg, 2, 2, 0, sample)
	}
	for _, s := range table {
		msg = appendField(msg, 6, 2, 0, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSampleLabelsParsing decodes labels from a synthetic profile.
func TestSampleLabelsParsing(t *testing.T) {
	// string table: [0]="" (required), [1]="query_key", [2]="Q1",
	// [3]="endpoint", [4]="eval".
	table := []string{"", "query_key", "Q1", "endpoint", "eval"}
	prof := encodeProfile(t, table, []map[uint64]uint64{
		{1: 2, 3: 4}, // query_key=Q1, endpoint=eval
		{1: 0},       // numeric label (str index 0): skipped
		{3: 4},       // endpoint=eval only
	})
	labels, err := SampleLabels(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 {
		t.Fatalf("got %d labeled samples, want 2: %v", len(labels), labels)
	}
	if labels[0]["query_key"] != "Q1" || labels[0]["endpoint"] != "eval" {
		t.Fatalf("sample 0 labels wrong: %v", labels[0])
	}
	n, err := HasLabel(prof, "endpoint", "eval")
	if err != nil || n != 2 {
		t.Fatalf("HasLabel(endpoint=eval) = %d, %v; want 2", n, err)
	}
	n, err = HasLabel(prof, "query_key", "Q1")
	if err != nil || n != 1 {
		t.Fatalf("HasLabel(query_key=Q1) = %d, %v; want 1", n, err)
	}
	if n, _ := HasLabel(prof, "query_key", "missing"); n != 0 {
		t.Fatalf("HasLabel(missing) = %d, want 0", n)
	}
}

// TestSampleLabelsErrors: not-gzip and corrupt payloads error cleanly.
func TestSampleLabelsErrors(t *testing.T) {
	if _, err := SampleLabels([]byte("not a profile")); err == nil {
		t.Fatal("plain bytes accepted")
	}
	// Gzipped garbage: a truncated varint inside.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0xff}) // field 2 wire 2 with truncated length
	zw.Close()
	if _, err := SampleLabels(buf.Bytes()); err == nil {
		t.Fatal("corrupt profile accepted")
	}
	// Out-of-range string index.
	bad := encodeProfile(t, []string{"", "k"}, []map[uint64]uint64{{1: 99}})
	if _, err := SampleLabels(bad); err == nil {
		t.Fatal("out-of-range label index accepted")
	}
}

// TestCaptureLabeledWork: CPU work run under Do during a capture window
// produces a profile that parses; when the sampler caught any labeled
// samples, the labels round-trip through SampleLabels.
func TestCaptureLabeledWork(t *testing.T) {
	s := NewStore(StoreConfig{Ring: 2, CPUDuration: 200 * time.Millisecond})

	stopWork := make(chan struct{})
	go Do(context.Background(), func(ctx context.Context) {
		x := 0
		for {
			select {
			case <-stopWork:
				return
			default:
				x += x*x + 1 // spin
			}
		}
	}, "query_key", "bench-key")
	defer close(stopWork)

	c, err := s.CaptureNow(Capture{Reason: "manual"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := s.Payload(c.ID, KindCPU)
	labels, err := SampleLabels(cpu)
	if err != nil {
		t.Fatalf("captured profile does not parse: %v", err)
	}
	// Sampling is statistical; with a 200ms window and a hot spin loop we
	// nearly always see the label, but only assert consistency: any sample
	// carrying query_key must carry our value.
	for _, m := range labels {
		if v, ok := m["query_key"]; ok && v != "bench-key" {
			t.Fatalf("foreign query_key label %q", v)
		}
	}
}
