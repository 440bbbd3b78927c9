package server

import (
	"context"
	"net/http"

	finq "repro"
	"repro/apiv1"
	"repro/internal/obs"
)

// POST /v1/eval/batch: many queries evaluated against one shared state in
// a single request. The wire cost of serving N small queries one request
// each — N TCP round trips, N handler chains, N parses of the same state
// — collapses to one: the state is parsed once, and the items run
// sequentially on the request's worker slot under one per-batch deadline
// (the eval timeout), so a batch occupies exactly the capacity of one
// evaluating request.
//
// Failure is item-scoped: a formula that does not parse or an evaluation
// that errors marks that item and the batch continues. When the deadline
// expires mid-batch, the item in flight comes back as a partial result
// (its evaluation stopped between rows or probes, exactly as a
// single-request deadline would), the items after it carry a "deadline"
// error, and the response's Stopped says "deadline" — the batch analogue
// of a partial evaluation result.
func (s *Server) handleBatch(ctx context.Context, env *handlerEnv) (any, error) {
	var req apiv1.BatchRequest
	if err := decodeBody(env.body, &req); err != nil {
		return nil, err
	}
	if len(req.Items) == 0 {
		return nil, errf(http.StatusBadRequest, "empty batch: items is required")
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		return nil, errf(http.StatusBadRequest,
			"batch has %d items; the limit is %d", len(req.Items), s.cfg.MaxBatchItems)
	}
	// Resolve the domain and parse the shared state once, up front: a batch
	// whose domain or state is broken is a bad request, not N failed items.
	d, err := finq.Lookup(req.Domain)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	st, err := parseStateOpt(req.Domain, req.State)
	if err != nil {
		return nil, err
	}

	// Batches replay corpora with far fewer distinct formulas than items,
	// so parse each distinct formula (and compute its canonical key) once
	// per batch — the formula-side analogue of the shared state parse.
	parsed := make(map[string]batchFormula, len(req.Items))

	out := apiv1.BatchResponse{Items: make([]apiv1.BatchItemResult, len(req.Items))}
	for i, item := range req.Items {
		if ctx.Err() != nil {
			// The per-batch deadline expired (or the client went away)
			// before this item started; mark it and the rest without
			// spending time on them.
			out.Items[i].Error = &apiv1.Error{
				Code:    apiv1.CodeDeadline,
				Message: "batch deadline expired before this item ran",
			}
			out.Stopped = "deadline"
			continue
		}
		out.Items[i] = s.evalBatchItem(ctx, d, st, req.Domain, item, parsed)
		if r := out.Items[i].Result; r != nil && (r.Stopped == "deadline" || r.Stopped == "canceled") {
			out.Stopped = "deadline"
		}
	}
	// Access-log rollup: total rows across items, plus the batch-level stop.
	var rows int64
	for _, it := range out.Items {
		if it.Result != nil && it.Result.Answer != nil {
			rows += int64(len(it.Result.Answer.Rows))
		}
	}
	noteRows(ctx, rows)
	noteStopped(ctx, out.Stopped)
	return out, nil
}

// batchFormula is one distinct formula's parse outcome, memoized for the
// life of a batch.
type batchFormula struct {
	f   *finq.Formula
	key string
	err error
}

// evalBatchItem runs one item of a batch, folding its failure into an
// item-scoped wire error. The item's formula parses against the shared
// state's constants, exactly as a single /v1/eval request would — but at
// most once per distinct formula text per batch.
func (s *Server) evalBatchItem(ctx context.Context, d finq.DomainInfo, st *finq.State,
	domainName string, item apiv1.BatchItem, parsed map[string]batchFormula) apiv1.BatchItemResult {

	bf, ok := parsed[item.Formula]
	if !ok {
		_, f, err := parseDomainFormula(domainName, item.Formula, st)
		bf = batchFormula{f: f, err: err}
		if err == nil {
			bf.key = f.CanonicalKey()
		}
		parsed[item.Formula] = bf
	}
	if bf.err != nil {
		return apiv1.BatchItemResult{Error: itemError(bf.err)}
	}
	// Each item evaluates under its own span — a child of the batch
	// request's span, with a minted span ID when the request carries a
	// trace — and the item result quotes that ID, so one item of a slow
	// batch can be located in the exported trace directly.
	ctx, sp := obs.StartSpanCtx(ctx, "server.batch_item")
	defer sp.End()
	// The first item seen for a query key feeds the tail sampler, same as
	// a single request; with several distinct formulas per batch the last
	// key wins the capture, but every key is marked seen.
	noteQueryKey(ctx, bf.key)
	res, err := finq.Eval(ctx, libRequest(domainName, st, bf.f, item.Mode, item.Budget, item.Profile))
	if err != nil {
		return apiv1.BatchItemResult{Error: itemError(err), SpanID: sp.SpanID()}
	}
	return apiv1.BatchItemResult{Result: finq.EncodeResult(d, res), SpanID: sp.SpanID()}
}

// itemError converts a handler error into the item-scoped wire error: an
// apiError keeps its code, anything else is an eval failure.
func itemError(err error) *apiv1.Error {
	if ae, ok := err.(*apiError); ok {
		return &apiv1.Error{Code: codeForStatus(ae.status), Message: ae.msg}
	}
	return &apiv1.Error{Code: apiv1.CodeEvalFailed, Message: err.Error()}
}
