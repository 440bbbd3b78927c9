package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/apiv1"
	"repro/client"
	"repro/internal/obs/logctx"
	"repro/internal/server"
)

// finqdConfig is cmd/finqd's flag defaults, except the listen address,
// which is an ephemeral loopback port. It is a hand-kept copy: nothing
// checks it against cmd/finqd, so a default changed there must be changed
// here too, until the server package exports one default configuration
// that both use.
func finqdConfig() server.Config {
	return server.Config{
		Addr:               "127.0.0.1:0",
		ServiceName:        "finqd",
		EvalTimeout:        30 * time.Second,
		DecideTimeout:      10 * time.Second,
		MaxBody:            1 << 20,
		SlowRequest:        time.Second,
		DrainGrace:         500 * time.Millisecond,
		SLOLatency:         time.Second,
		SLOLatencyTarget:   0.99,
		SLOErrorTarget:     0.999,
		SLOTick:            10 * time.Second,
		SLOFastWindow:      time.Minute,
		SLOSlowWindow:      10 * time.Minute,
		SLOTripBurn:        8,
		ProfileCPUDuration: 2 * time.Second,
		ProfileRing:        8,
		ProfileCooldown:    5 * time.Minute,
	}
}

// setupLogging installs finqd's default access log (level info, text
// format) writing into io.Discard: every line is formatted, none reaches a
// terminal inside the timing.
func setupLogging() {
	if err := logctx.Setup(io.Discard, "", ""); err != nil {
		panic(err) // the empty level and format are finqd's defaults
	}
}

// warmupCalls is each workload's fixed warm-up request count. safety's
// calls vary most in cost (p99 is four times p50), so it warms with enough
// of them that their sum, and so setup_s, hardly depends on the seed.
var warmupCalls = map[string]int{
	"point":       1000,
	"enum-stream": 20,
	"safety":      400,
}

// poolRate sizes each workload's input pool, generated before timing, in
// calls per second of window: about twice the rate measured on a 2-core
// x86-64 host in its slower hours. A faster program or host wraps around
// to the pool's start; the pool is far larger than every cache's reach
// (512 plans, 4096 decisions, a few hundred enum-stream requests), so a
// wrapped call still misses.
var poolRate = map[string]int{
	"point":       6000,
	"enum-stream": 250,
	"safety":      1000,
}

// outcome is one completed call.
type outcome struct {
	lat      time.Duration // send to full response (or stream trailer) decoded
	firstRow time.Duration // send to finqd's write of the first answer row
	got      answer
}

// domainName is the domain every workload queries: Presburger ℕ, where
// both of the paper's expensive procedures (§1.1 enumeration, the
// Theorem 2.5 safety test) run on Cooper's elimination.
const domainName = "presburger"

// epoch is the zero of the offsets the tap and the caller exchange, so
// both sides of a request read one monotonic clock.
var epoch = time.Now()

// tap serves finqd's handler chain on the benchmark's own listener and
// timestamps, for the request in flight, when finqd wrote its first answer
// row to the connection. With one P the client goroutine cannot run while
// the server computes, so a client-side read would see a streamed row only
// when the whole enumeration ends; the write time is what a client on its
// own core sees, less loopback transit. While tracing is on the tap also
// sends one span per request, timed around ServeHTTP and named by the
// request's X-Request-Id; the caller receives it after its call returns.
type tap struct {
	next     http.Handler
	firstRow atomic.Int64 // offset from epoch of the current request's first row write
	tracing  atomic.Bool
	// spans never blocks the handler: the buffer holds the spans of failed
	// calls, which the next good call skips by ID, and a full buffer drops.
	spans chan servedSpan
}

// servedSpan is one request's time inside finqd's handler chain.
type servedSpan struct {
	id  string
	dur time.Duration
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &rowWriter{ResponseWriter: w, tap: t}
	if !t.tracing.Load() {
		t.next.ServeHTTP(rw, r)
		return
	}
	t0 := time.Now()
	t.next.ServeHTTP(rw, r)
	select {
	case t.spans <- servedSpan{id: r.Header.Get("X-Request-Id"), dur: time.Since(t0)}:
	default: // only unread spans of failed calls fill the buffer
	}
}

// streamHeader opens an NDJSON stream's header line, which carries no row.
var streamHeader = []byte(`{"vars"`)

// rowWriter stamps the first write that carries an answer: the first row
// line of a stream, or the whole body of a buffered response.
type rowWriter struct {
	http.ResponseWriter
	tap     *tap
	stamped bool
}

func (w *rowWriter) Write(b []byte) (int, error) {
	if !w.stamped && !bytes.HasPrefix(b, streamHeader) {
		w.stamped = true
		w.tap.firstRow.Store(int64(time.Since(epoch)))
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets the streaming handler's ResponseController reach the
// connection's Flush.
func (w *rowWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// caller sends one workload's calls to one finqd over one keep-alive
// connection.
type caller struct {
	c    *client.Client
	spec spec
	tap  *tap
	// reqID, when set, names the next call in its X-Request-Id header.
	reqID string
}

func newCaller(base string, sp spec, t *tap) *caller {
	cl := &caller{spec: sp, tap: t}
	cl.c = client.New(base, &http.Client{Transport: idTransport{cl: cl, rt: &http.Transport{MaxIdleConnsPerHost: 1}}})
	return cl
}

// idTransport stamps the caller's request ID on outgoing requests.
type idTransport struct {
	cl *caller
	rt http.RoundTripper
}

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.cl.reqID != "" {
		r = r.Clone(r.Context())
		r.Header.Set("X-Request-Id", t.cl.reqID)
	}
	return t.rt.RoundTrip(r)
}

// evalRequest is the wire body of a call to /v1/eval.
func (cl *caller) evalRequest(c *call) apiv1.EvalRequest {
	return apiv1.EvalRequest{Domain: domainName, Formula: c.formula, State: c.state, Mode: cl.spec.mode}
}

// safetyRequest is the wire body of a call to /v1/safety.
func (cl *caller) safetyRequest(c *call) apiv1.SafetyRequest {
	return apiv1.SafetyRequest{Domain: domainName, Formula: c.formula, State: c.state}
}

// body is the wire body of a call to the workload's endpoint.
func (cl *caller) body(c *call) any {
	if cl.spec.kind == kindSafety {
		return cl.safetyRequest(c)
	}
	return cl.evalRequest(c)
}

// do sends one call and summarizes the response. Errors cover transport
// failures and error envelopes; a wrong answer is not an error here, the
// caller compares got against the oracle.
func (cl *caller) do(ctx context.Context, c *call) (outcome, error) {
	var o outcome
	t0 := time.Now()
	switch cl.spec.kind {
	case kindEval:
		res, err := cl.c.Eval(ctx, cl.evalRequest(c))
		if err != nil {
			return o, err
		}
		o.lat = time.Since(t0)
		o.got = resultAnswer(res)
	case kindStream:
		var rows []int64
		res, err := cl.c.EvalStream(ctx, cl.evalRequest(c), apiv1.ContentTypeNDJSON, func(row []string) error {
			v, err := cellValue(row)
			rows = append(rows, v)
			return err
		})
		if err != nil {
			return o, err
		}
		o.lat = time.Since(t0)
		if res.Trailer.Error != nil || !res.Trailer.Complete || res.Trailer.Rows != int64(len(rows)) {
			return o, fmt.Errorf("stream trailer %+v after %d rows", res.Trailer, len(rows))
		}
		o.got = rowsAnswer(rows)
	case kindSafety:
		res, err := cl.c.Safety(ctx, cl.safetyRequest(c))
		if err != nil {
			return o, err
		}
		o.lat = time.Since(t0)
		o.got = verdictAnswer(res.Verdict.String())
	}
	// finqd stamped its first answer write before the response reached us.
	o.firstRow = time.Duration(cl.tap.firstRow.Load()) - t0.Sub(epoch)
	return o, nil
}

// resultAnswer summarizes a buffered evaluation result; a partial result
// or a malformed cell summarizes as a value no oracle answer equals.
func resultAnswer(res *apiv1.EvalResponse) answer {
	if res == nil || res.Answer == nil || res.Partial || !res.Answer.Complete {
		return answer{rows: -2}
	}
	if res.Answer.Truth != nil {
		return truthAnswer(*res.Answer.Truth)
	}
	rows := make([]int64, 0, len(res.Answer.Rows))
	for _, row := range res.Answer.Rows {
		v, err := cellValue(row)
		if err != nil {
			return answer{rows: -2}
		}
		rows = append(rows, v)
	}
	return rowsAnswer(rows)
}

// cellValue reads a unary answer row's only cell as a natural number.
func cellValue(row []string) (int64, error) {
	if len(row) != 1 {
		return 0, fmt.Errorf("answer row %v: want one cell", row)
	}
	return strconv.ParseInt(row[0], 10, 64)
}

// finqd is one in-process finqd and a client bound to it.
type finqd struct {
	tap *tap
	cl  *caller
}

// bootFinqd builds finqd with its shipped defaults and starts it, which
// also starts its runtime sampler and SLO engine, then serves its handler
// chain through a tap on a loopback listener and binds a caller to it.
// The process's exit stops both servers.
func bootFinqd(sp spec) (*finqd, error) {
	srv := server.New(finqdConfig())
	if _, err := srv.Start(); err != nil {
		return nil, fmt.Errorf("starting finqd: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &tap{next: srv.Handler(), spans: make(chan servedSpan, 64)}
	go (&http.Server{Handler: t}).Serve(ln)
	return &finqd{tap: t, cl: newCaller("http://"+ln.Addr().String(), sp, t)}, nil
}

// warm sends the warm-up calls, failing on any error or wrong answer.
func warm(ctx context.Context, cl *caller, calls *pool) error {
	for i := 0; i < calls.len(); i++ {
		c := calls.get(i)
		o, err := cl.do(ctx, &c)
		if err != nil {
			return fmt.Errorf("warm-up call %d: %w", i, err)
		}
		if o.got != c.want {
			return fmt.Errorf("warm-up call %d: answer differs from the oracle", i)
		}
	}
	return nil
}

// setUp boots finqd and runs the warm-up, returning the server and the
// seconds both took. Input generation happens before and is not counted.
func setUp(ctx context.Context, sp spec, warmup *pool) (*finqd, float64, error) {
	t0 := time.Now()
	f, err := bootFinqd(sp)
	if err != nil {
		return nil, 0, err
	}
	if err := warm(ctx, f.cl, warmup); err != nil {
		return nil, 0, err
	}
	return f, time.Since(t0).Seconds(), nil
}

// fatalf reports a failed run on stderr and exits nonzero without printing
// a result line.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "finqbench: "+format+"\n", args...)
	os.Exit(1)
}
