package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	finq "repro"
	"repro/apiv1"
	"repro/internal/obs"
	"repro/internal/plan"
)

// The traced run gives the per-layer breakdown, separately from the
// end-to-end run and from the benchmark's own files (the program carries
// no spans for it). After the usual set-up it repeats rounds in which
// closed-loop calls alternate between
//
//	U  untraced, the baseline for trace.overhead_frac, and
//	A  traced: one span around the client call and one around finqd's
//	   ServeHTTP, sharing the call's X-Request-Id,
//
// with finqd's obs counters and the runtime's GC CPU read around the
// round's calls, and then
//
//	B  replays the round's A calls, in order, straight through the public
//	   functions the handlers call, in handler order, with a span and an
//	   allocation delta around each call.
//
// Self time is a span minus its children.

// Coverage tolerance: B's stage spans must explain at least this share of
// finqd's handler time in A, and may exceed it by at most the upper bound
// (more would mean the replay does work the handler does not).
const (
	coverageMin = 0.5
	coverageMax = 1.15
)

// Stage names of replay B, in handler order; each becomes <name>_us and
// <name>_allocs per query.
var stages = []string{
	"apiv1.decode", "statejson.parse", "parser.parse", "logic.key",
	"plan.for", "finq.eval", "core.safety", "finq.encode",
}

// traceBlock is the traced calls per round, sized past every cache's
// reach where the workload misses: more than 512 plans (point,
// enum-stream) and 4096 decisions (enum-stream, ~13 per call), so the
// replay of a round's calls misses exactly as serving them did.
var traceBlock = map[kind]int{kindEval: 1024, kindStream: 520, kindSafety: 256}

// runTraced runs rounds until the window ends. A round serves 2n calls
// that alternate untraced (U) and traced (A), so both sample the same mix
// at the same time, then replays the n traced calls (B). finqd's counters
// and the GC's CPU are read around the served part, and count per query
// served.
func runTraced(ctx context.Context, sp spec, warmup, pool *pool, window time.Duration, samples map[string]int) (result, error) {
	f, _, err := setUp(ctx, sp, warmup)
	if err != nil {
		return result{}, err
	}
	rp := newReplayer(sp)
	n := traceBlock[sp.kind]
	type servedCall struct {
		i     int // pool index
		got   answer
		serve time.Duration
	}
	var latU, latA []float64
	var served, wire time.Duration
	var gcCPU, allCPU float64
	counters := map[string]int64{}
	histSum := int64(0)
	callsA, callsB, calls := 0, 0, 0
	for end := time.Now().Add(window); time.Now().Before(end); {
		traced := make([]servedCall, 0, n)
		obs0 := obs.Take()
		gc0, all0 := cpuSeconds()
		for k := 0; k < 2*n; k++ {
			i := calls % pool.len()
			c := pool.get(i)
			calls++
			on := k%2 == 1
			f.tap.tracing.Store(on)
			f.cl.reqID = ""
			if on {
				f.cl.reqID = fmt.Sprintf("fb-%d", calls)
			}
			o, err := f.cl.do(ctx, &c)
			if err != nil || o.got != c.want {
				return result{}, fmt.Errorf("served call %d failed: %v", i, err)
			}
			if !on {
				latU = append(latU, float64(o.lat)/1e6)
				continue
			}
			s, ok := spanFor(f.tap.spans, f.cl.reqID)
			if !ok {
				return result{}, fmt.Errorf("no span from finqd for call %s", f.cl.reqID)
			}
			latA = append(latA, float64(o.lat)/1e6)
			wire += o.lat - s.dur
			callsA++
			traced = append(traced, servedCall{i, o.got, s.dur})
		}
		f.tap.tracing.Store(false)
		f.cl.reqID = ""
		obs1 := obs.Take()
		gc1, all1 := cpuSeconds()
		for name, v := range obs1.Counters {
			counters[name] += v - obs0.Counters[name]
		}
		histSum += obs1.Histograms["plan.compile.us"].Sum - obs0.Histograms["plan.compile.us"].Sum
		gcCPU += gc1 - gc0
		allCPU += all1 - all0
		for _, sc := range traced {
			c := pool.get(sc.i)
			// Yield between calls as the served loop does while it waits on
			// the socket, so the GC's background worker runs between calls
			// in both, not inside one side's spans only.
			runtime.Gosched()
			got, err := rp.replay(ctx, &c)
			if err != nil || got != sc.got || got != c.want {
				return result{}, fmt.Errorf("replay of call %d differs from the served run (err %v)", sc.i, err)
			}
			served += sc.serve
			callsB++
		}
	}

	var stageSum time.Duration
	m := map[string]metric{}
	for _, name := range stages {
		stageSum += rp.self[name]
		m[name+"_us"] = metric{us(rp.self[name]) / float64(callsB), "us"}
		m[name+"_allocs"] = metric{float64(rp.allocs[name]) / float64(callsB), "objects/query"}
	}
	coverage := float64(stageSum) / float64(served)
	if coverage < coverageMin || coverage > coverageMax {
		return result{}, fmt.Errorf("trace.coverage %.3f outside its tolerance [%g, %g]", coverage, coverageMin, coverageMax)
	}
	sort.Float64s(latU)
	sort.Float64s(latA)
	p50U, err := percentile(latU, 0.5)
	if err != nil {
		return result{}, err
	}
	p50A, err := percentile(latA, 0.5)
	if err != nil {
		return result{}, err
	}
	perQ := func(name string) float64 { return float64(counters[name]) / float64(calls) }
	hits := func(prefix string) float64 {
		return ratio(float64(counters[prefix+".hits"]), float64(counters[prefix+".hits"]+counters[prefix+".misses"]))
	}
	m["client.wire_us"] = metric{us(wire) / float64(callsA), "us"}
	m["server.self_us"] = metric{us(served-stageSum) / float64(callsB), "us"}
	m["plan.hit_ratio"] = metric{hits("plan.cache"), "ratio"}
	m["plan.compile_us"] = metric{float64(histSum) / float64(calls), "us"}
	m["query.decisions_per_q"] = metric{perQ("query.enumerate.decisions"), "count/query"}
	m["query.probes_per_q"] = metric{perQ("query.enumerate.probes"), "count/query"}
	m["deccache.hit_ratio"] = metric{hits("deccache." + domainName), "ratio"}
	m["presburger.elims_per_q"] = metric{perQ("qe.presburger.eliminations"), "count/query"}
	m["qstats.evictions_per_q"] = metric{perQ("qstats.evictions"), "count/query"}
	m["runtime.gc_cpu_frac"] = metric{ratio(gcCPU, allCPU), "fraction"}
	m["trace.coverage"] = metric{coverage, "fraction"}
	m["trace.overhead_frac"] = metric{p50A/p50U - 1, "fraction"}

	samples["requests"] = calls
	samples["pool"] = pool.len()
	for name := range m {
		samples[name] = calls // obs counters and GC CPU: every served call
	}
	samples["client.wire_us"] = callsA
	for _, name := range stages {
		samples[name+"_us"], samples[name+"_allocs"] = callsB, callsB
	}
	samples["server.self_us"], samples["trace.coverage"] = callsB, callsB
	samples["trace.overhead_frac"] = min(len(latU), len(latA))
	return result{Correct: true, Attempted: calls, Metrics: m}, nil
}

// spanFor receives served spans until the one for call id, skipping the
// spans of earlier calls that failed.
func spanFor(spans <-chan servedSpan, id string) (servedSpan, bool) {
	timeout := time.After(30 * time.Second)
	for {
		select {
		case s := <-spans:
			if s.id == id {
				return s, true
			}
		case <-timeout:
			return servedSpan{}, false
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replayer calls the public functions behind finqd's handlers directly,
// timing each call as a span and summing self time and allocations per
// stage.
type replayer struct {
	wire   *caller // builds the wire bodies, as the client does
	d      finq.DomainInfo
	self   map[string]time.Duration
	allocs map[string]uint64
	open   []frame
}

// frame is an open span: its stage, start, and what its children took.
type frame struct {
	name        string
	t0          time.Time
	a0          uint64
	child       time.Duration
	childAllocs uint64
}

func newReplayer(sp spec) *replayer {
	return &replayer{wire: &caller{spec: sp}, d: finq.MustLookup(domainName),
		self: map[string]time.Duration{}, allocs: map[string]uint64{}}
}

func (rp *replayer) begin(name string) {
	rp.open = append(rp.open, frame{name: name, a0: heapAllocs(), t0: time.Now()})
}

func (rp *replayer) end() {
	f := rp.open[len(rp.open)-1]
	d, a := time.Since(f.t0), heapAllocs()-f.a0
	rp.open = rp.open[:len(rp.open)-1]
	rp.self[f.name] += d - f.child
	rp.allocs[f.name] += a - f.childAllocs
	if len(rp.open) > 0 {
		p := &rp.open[len(rp.open)-1]
		p.child += d
		p.childAllocs += a
	}
}

// replay runs one call through the public functions, in handler order,
// and returns its answer summarized as the client summarizes responses.
func (rp *replayer) replay(ctx context.Context, c *call) (answer, error) {
	var req any = &apiv1.EvalRequest{}
	if rp.wire.spec.kind == kindSafety {
		req = &apiv1.SafetyRequest{}
	}
	body, err := json.Marshal(rp.wire.body(c))
	if err != nil {
		return answer{}, err
	}
	rp.begin("apiv1.decode")
	err = decodeStrict(body, req)
	rp.end()
	if err != nil {
		return answer{}, err
	}
	var state json.RawMessage
	var src string
	switch r := req.(type) {
	case *apiv1.EvalRequest:
		state, src = r.State, r.Formula
	case *apiv1.SafetyRequest:
		state, src = r.State, r.Formula
	}
	rp.begin("statejson.parse")
	st, err := finq.ParseState(rp.d, state)
	rp.end()
	if err != nil {
		return answer{}, err
	}
	rp.begin("parser.parse")
	f, err := rp.d.Parse(src)
	rp.end()
	if err != nil {
		return answer{}, err
	}
	if rp.wire.spec.kind == kindSafety {
		return rp.safety(st, f)
	}
	rp.begin("logic.key")
	key := f.CanonicalKey()
	rp.end()
	rp.begin("plan.for")
	plan.For(ctx, st.Scheme(), rp.d.Name, key, f)
	rp.end()
	if rp.wire.spec.kind == kindStream {
		return rp.stream(ctx, st, f)
	}
	rp.begin("finq.eval")
	res, err := finq.Eval(ctx, finq.Request{Domain: rp.d.Name, State: st, Formula: f, Mode: finq.EvalMode(rp.wire.spec.mode)})
	rp.end()
	if err != nil {
		return answer{}, err
	}
	rp.begin("finq.encode")
	out := finq.EncodeResult(rp.d, res)
	_, err = json.Marshal(out)
	rp.end()
	return resultAnswer(out), err
}

// safety is the safety handler's tail: analyze, encode.
func (rp *replayer) safety(st *finq.State, f *finq.Formula) (answer, error) {
	rp.begin("core.safety")
	v, err := finq.RelativeSafety(rp.d, st, f)
	rp.end()
	if err != nil {
		return answer{}, err
	}
	rp.begin("finq.encode")
	_, err = json.Marshal(apiv1.SafetyResponse{Verdict: v})
	rp.end()
	return verdictAnswer(v.String()), err
}

// stream evaluates an enumeration with every row encoded as an NDJSON line
// as it is found, the encoding spans nested in the evaluation's.
func (rp *replayer) stream(ctx context.Context, st *finq.State, f *finq.Formula) (answer, error) {
	var rows []int64
	var buf bytes.Buffer
	line := func(v any) error {
		rp.begin("finq.encode")
		defer rp.end()
		b, err := json.Marshal(v)
		buf.Write(b)
		return err
	}
	if err := line(apiv1.StreamHeader{Vars: f.FreeVars()}); err != nil {
		return answer{}, err
	}
	rp.begin("finq.eval")
	res, err := finq.Eval(ctx, finq.Request{Domain: rp.d.Name, State: st, Formula: f, Mode: finq.ModeEnumerate,
		OnRow: func(_ []string, row finq.Tuple) error {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = rp.d.Domain.ConstName(v)
			}
			if err := line(apiv1.StreamRow{Row: cells}); err != nil {
				return err
			}
			v, err := cellValue(cells)
			rows = append(rows, v)
			return err
		}})
	rp.end()
	if err != nil {
		return answer{}, err
	}
	if err := line(apiv1.StreamTrailer{Rows: int64(len(rows)), Complete: res.Answer.Complete}); err != nil {
		return answer{}, err
	}
	if !res.Answer.Complete {
		return answer{rows: -2}, nil
	}
	return rowsAnswer(rows), nil
}

// decodeStrict decodes a request body as finqd does: unknown fields are
// errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
