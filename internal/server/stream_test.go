package server

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/apiv1"
	"repro/client"
	"repro/internal/obs/qstats"
)

// slowStreamReq enumerates an infinite answer (¬R(x) over Presburger)
// under a huge budget — the streaming analogue of slowEvalBody.
func slowStreamReq() apiv1.EvalRequest {
	return apiv1.EvalRequest{
		Domain:  "presburger",
		Formula: "~R(x)",
		State:   json.RawMessage(`{"relations": {"R": [["5"]]}}`),
		Mode:    "enumerate",
		Budget:  &apiv1.Budget{Rows: 1 << 20, Probe: 1 << 30},
	}
}

// TestStreamNDJSONComplete: a finite enumeration streams every row and
// ends with a complete trailer, in both negotiation forms (?stream=1 is
// exercised through the client's Accept header; the encodings share the
// handler).
func TestStreamNDJSONComplete(t *testing.T) {
	_, base := startServer(t, Config{})
	c := client.New(base, nil)

	for _, enc := range []string{apiv1.ContentTypeNDJSON, apiv1.ContentTypeFrames} {
		var rows [][]string
		res, err := c.EvalStream(context.Background(), apiv1.EvalRequest{
			Domain:  "presburger",
			Formula: "R(x)",
			State:   json.RawMessage(presStateJSON),
			Mode:    "enumerate",
			Budget:  &apiv1.Budget{Rows: 16, Probe: 1 << 20},
		}, enc, func(row []string) error {
			rows = append(rows, append([]string{}, row...))
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		if !reflect.DeepEqual(res.Vars, []string{"x"}) {
			t.Fatalf("%s: vars %v", enc, res.Vars)
		}
		if len(rows) != 2 {
			t.Fatalf("%s: streamed rows %v", enc, rows)
		}
		if !res.Trailer.Complete || res.Trailer.Partial || res.Trailer.Rows != 2 {
			t.Fatalf("%s: trailer %+v", enc, res.Trailer)
		}
	}
}

// TestStreamBooleanTruth: a sentence streams no rows; the verdict rides
// the trailer.
func TestStreamBooleanTruth(t *testing.T) {
	_, base := startServer(t, Config{})
	c := client.New(base, nil)

	res, err := c.EvalStream(context.Background(), apiv1.EvalRequest{
		Domain:  "presburger",
		Formula: "exists x. R(x)",
		State:   json.RawMessage(presStateJSON),
		Mode:    "enumerate",
	}, "", func(row []string) error {
		t.Fatalf("boolean stream delivered a row: %v", row)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trailer.Truth == nil || !*res.Trailer.Truth {
		t.Fatalf("trailer %+v", res.Trailer)
	}
}

// TestStreamRequiresEnumerate: stream negotiation on active mode is a
// 400 bad_request before any streaming starts.
func TestStreamRequiresEnumerate(t *testing.T) {
	_, base := startServer(t, Config{})
	c := client.New(base, nil)

	_, err := c.EvalStream(context.Background(), apiv1.EvalRequest{
		Domain:  "eq",
		Formula: "exists y. F(x, y)",
		State:   json.RawMessage(eqStateJSON),
	}, "", nil)
	assertAPIError(t, err, 400, apiv1.CodeBadRequest)
}

// TestStreamFirstRowBeforeDeadline is the streaming acceptance check: on
// an enumeration that would run to its deadline, the first row reaches
// the client while the evaluation is still running — not after the budget
// or deadline ends.
func TestStreamFirstRowBeforeDeadline(t *testing.T) {
	_, base := startServer(t, Config{EvalTimeout: 2 * time.Second})
	c := client.New(base, nil)

	t0 := time.Now()
	var firstRow time.Duration
	res, err := c.EvalStream(context.Background(), slowStreamReq(), "", func(row []string) error {
		if firstRow == 0 {
			firstRow = time.Since(t0)
		}
		return nil
	})
	total := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trailer.Stopped != "deadline" || !res.Trailer.Partial {
		t.Fatalf("trailer %+v", res.Trailer)
	}
	if firstRow == 0 {
		t.Fatal("no row arrived before the deadline")
	}
	if firstRow > total/2 {
		t.Fatalf("first row after %v of %v; rows are not streaming", firstRow, total)
	}
}

// TestStreamClientDisconnect is the disconnect acceptance check (run
// under -race in CI): a client that goes away mid-stream stops the
// evaluation goroutine promptly, the rows already found were flushed, and
// the stop reason "client-gone" lands in per-query stats and the access
// log.
func TestStreamClientDisconnect(t *testing.T) {
	cap, logger := captureLogger(t)
	srv, base := startServer(t, Config{EvalTimeout: 30 * time.Second, Logger: logger})
	c := client.New(base, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := 0
	_, err := c.EvalStream(ctx, slowStreamReq(), "", func(row []string) error {
		rows++
		if rows == 3 {
			cancel() // the client vanishes mid-stream
		}
		return nil
	})
	if err == nil {
		t.Fatal("abandoned stream should error on the client side")
	}
	if rows < 3 {
		t.Fatalf("rows were not flushed before the disconnect: %d", rows)
	}

	// The evaluation goroutine must stop promptly — long before the 30s
	// deadline — freeing the worker slot.
	waitFor(t, "worker slot release", func() bool {
		return srv.queued.Load() == 0
	})
	// The stop reason is recorded in per-query stats...
	waitFor(t, "client-gone in qstats", func() bool {
		entries, err := qstats.Default().TopK(qstats.ByCount, 0)
		if err != nil {
			return false
		}
		for _, e := range entries {
			if e.Stopped["client-gone"] > 0 {
				return true
			}
		}
		return false
	})
	// ...and in the access log line of the request.
	waitFor(t, "client-gone access log", func() bool {
		for _, rec := range cap.lines(t) {
			if rec["endpoint"] == "eval" && rec["stopped"] == "client-gone" {
				return true
			}
		}
		return false
	})
}
