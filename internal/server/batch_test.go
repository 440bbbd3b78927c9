package server

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/apiv1"
	"repro/client"
)

// eqStateJSON is a small genealogy state over the eq domain, shared by
// the batch and stream tests.
const eqStateJSON = `{"relations": {"F": [["adam", "abel"], ["adam", "cain"]]}}`

// presStateJSON is a small Presburger state whose constants are small
// numerals, so §1.1 enumeration finds them within a few probes.
const presStateJSON = `{"relations": {"R": [["1"], ["3"]]}}`

// TestBatchSharedState: one batch runs several queries — active,
// enumerate, and a boolean sentence — against one shared state, and each
// item's result matches what a single /v1/eval would have produced.
func TestBatchSharedState(t *testing.T) {
	_, base := startServer(t, Config{})
	c := client.New(base, nil)

	resp, err := c.EvalBatch(context.Background(), apiv1.BatchRequest{
		Domain: "presburger",
		State:  json.RawMessage(presStateJSON),
		Items: []apiv1.BatchItem{
			{Formula: "R(x)"},
			{Formula: "R(x)", Mode: "enumerate", Budget: &apiv1.Budget{Rows: 16, Probe: 1 << 20}},
			{Formula: "exists x. R(x)"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stopped != "" {
		t.Fatalf("batch stopped early: %q", resp.Stopped)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("want 3 item results, got %d", len(resp.Items))
	}
	for i, it := range resp.Items {
		if it.Error != nil {
			t.Fatalf("item %d failed: %v", i, it.Error)
		}
		if it.Result == nil || it.Result.Answer == nil {
			t.Fatalf("item %d misses a result", i)
		}
	}
	if rows := resp.Items[0].Result.Answer.Rows; len(rows) != 2 {
		t.Fatalf("item 0 rows %v", rows)
	}
	if ans := resp.Items[1].Result.Answer; !ans.Complete || len(ans.Rows) != 2 {
		t.Fatalf("item 1 should enumerate both rows completely: %+v", ans)
	}
	if tr := resp.Items[2].Result.Answer.Truth; tr == nil || !*tr {
		t.Fatalf("item 2 should be true: %+v", resp.Items[2].Result.Answer)
	}
}

// TestBatchItemError: a failing item (bad formula) is reported on that
// item with a closed-set code; the items around it still run.
func TestBatchItemError(t *testing.T) {
	_, base := startServer(t, Config{})
	c := client.New(base, nil)

	resp, err := c.EvalBatch(context.Background(), apiv1.BatchRequest{
		Domain: "eq",
		State:  json.RawMessage(eqStateJSON),
		Items: []apiv1.BatchItem{
			{Formula: "exists y. F(x, y)"},
			{Formula: "((("},
			{Formula: "exists y. F(x, y)"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Items[0].Error != nil || resp.Items[2].Error != nil {
		t.Fatalf("healthy items failed: %+v", resp.Items)
	}
	bad := resp.Items[1]
	if bad.Result != nil || bad.Error == nil {
		t.Fatalf("item 1 should carry an error, got %+v", bad)
	}
	if bad.Error.Code != apiv1.CodeBadRequest {
		t.Fatalf("bad-formula item code %q, want %q", bad.Error.Code, apiv1.CodeBadRequest)
	}
	if resp.Stopped != "" {
		t.Fatalf("an item error must not stop the batch: %q", resp.Stopped)
	}
}

// TestBatchDeadline: when the per-batch deadline expires mid-batch, the
// item in flight comes back partial (stopped "deadline"), the items after
// it carry a "deadline" error without running, and the response says the
// batch stopped on the deadline.
func TestBatchDeadline(t *testing.T) {
	_, base := startServer(t, Config{EvalTimeout: 300 * time.Millisecond})
	c := client.New(base, nil)

	slow := apiv1.BatchItem{
		Formula: "~R(x)",
		Mode:    "enumerate",
		Budget:  &apiv1.Budget{Rows: 1 << 20, Probe: 1 << 30},
	}
	resp, err := c.EvalBatch(context.Background(), apiv1.BatchRequest{
		Domain: "presburger",
		State:  json.RawMessage(`{"relations": {"R": [["5"]]}}`),
		Items:  []apiv1.BatchItem{slow, {Formula: "R(x)", Mode: "enumerate"}, {Formula: "R(x)", Mode: "enumerate"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stopped != "deadline" {
		t.Fatalf("batch stopped %q, want deadline: %+v", resp.Stopped, resp)
	}
	first := resp.Items[0]
	if first.Result == nil || !first.Result.Partial || first.Result.Stopped != "deadline" {
		t.Fatalf("in-flight item should be a partial deadline result: %+v", first)
	}
	for i, it := range resp.Items[1:] {
		if it.Error == nil || it.Error.Code != apiv1.CodeDeadline {
			t.Fatalf("post-deadline item %d should carry a deadline error: %+v", i+1, it)
		}
	}
}

// TestBatchLimits: an empty batch and an over-limit batch are 400s with
// the bad_request code.
func TestBatchLimits(t *testing.T) {
	_, base := startServer(t, Config{MaxBatchItems: 4})
	c := client.New(base, nil)

	_, err := c.EvalBatch(context.Background(), apiv1.BatchRequest{Domain: "eq"})
	assertAPIError(t, err, 400, apiv1.CodeBadRequest)

	items := make([]apiv1.BatchItem, 5)
	for i := range items {
		items[i] = apiv1.BatchItem{Formula: "x = x"}
	}
	_, err = c.EvalBatch(context.Background(), apiv1.BatchRequest{Domain: "eq", Items: items})
	assertAPIError(t, err, 400, apiv1.CodeBadRequest)
}

// assertAPIError checks a client error is an *client.APIError with the
// given status and closed-set code.
func assertAPIError(t *testing.T, err error, status int, code string) {
	t.Helper()
	ae, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("want *client.APIError, got %T: %v", err, err)
	}
	if ae.Status != status || ae.Code != code {
		t.Fatalf("want %d %s, got %d %s (%s)", status, code, ae.Status, ae.Code, ae.Message)
	}
	if !apiv1.ValidCode(ae.Code) {
		t.Fatalf("code %q outside the closed set", ae.Code)
	}
	if ae.TraceID == "" {
		t.Fatalf("error misses the trace ID: %+v", ae)
	}
}
