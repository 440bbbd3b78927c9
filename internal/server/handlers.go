package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	finq "repro"
	"repro/apiv1"
	"repro/internal/obs/qstats"
)

// decodeBody unmarshals a request body strictly, so misspelled fields are
// 400s instead of silently ignored options.
func decodeBody(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errf(http.StatusBadRequest, "bad request body: %v", err)
	}
	return nil
}

// parseDomainFormula resolves the domain and parses the formula, treating
// the state's database constants as constant symbols when a state is
// present.
func parseDomainFormula(domainName, formula string, st *finq.State) (finq.DomainInfo, *finq.Formula, error) {
	d, err := finq.Lookup(domainName)
	if err != nil {
		return finq.DomainInfo{}, nil, errf(http.StatusBadRequest, "%v", err)
	}
	var f *finq.Formula
	if st != nil && len(st.Scheme().Constants) > 0 {
		f, err = d.ParseWithConstants(formula, st.Scheme().Constants...)
	} else {
		f, err = d.Parse(formula)
	}
	if err != nil {
		return finq.DomainInfo{}, nil, errf(http.StatusBadRequest, "parsing formula: %v", err)
	}
	return d, f, nil
}

// parseStateOpt parses an optional state body over the named domain; no
// state means nil (the library's empty-state default).
func parseStateOpt(domainName string, raw json.RawMessage) (*finq.State, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	d, err := finq.Lookup(domainName)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	st, err := finq.ParseState(d, raw)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	return st, nil
}

// libRequest converts the wire form of one evaluation into the library's.
func libRequest(domainName string, st *finq.State, f *finq.Formula,
	mode string, budget *apiv1.Budget, profile bool) finq.Request {

	lreq := finq.Request{
		Domain:  domainName,
		State:   st,
		Formula: f,
		Mode:    finq.EvalMode(mode),
		Profile: profile,
	}
	if budget != nil {
		lreq.Budget = &finq.EnumerationBudget{Rows: budget.Rows, Probe: budget.Probe}
	}
	return lreq
}

func (s *Server) handleEval(ctx context.Context, env *handlerEnv) (any, error) {
	var req apiv1.EvalRequest
	if err := decodeBody(env.body, &req); err != nil {
		return nil, err
	}
	st, err := parseStateOpt(req.Domain, req.State)
	if err != nil {
		return nil, err
	}
	d, f, err := parseDomainFormula(req.Domain, req.Formula, st)
	if err != nil {
		return nil, err
	}
	lreq := libRequest(req.Domain, st, f, req.Mode, req.Budget, req.Profile)
	// Feed the tail sampler: the canonical key marks this request as a
	// sighting of its query, so each distinct query's first request gets a
	// retained trace.
	noteQueryKey(ctx, f.CanonicalKey())
	if enc := streamEncoding(env.r); enc != "" {
		return s.streamEval(ctx, env, enc, d, lreq)
	}
	res, err := finq.Eval(ctx, lreq)
	if err != nil {
		return nil, err
	}
	// Feed the access log: row cardinality and (for partial results) what
	// stopped the evaluation.
	if res.Answer != nil {
		noteRows(ctx, int64(res.Answer.Rows.Len()))
	}
	noteStopped(ctx, res.Stopped)
	return finq.EncodeResult(d, res), nil
}

func (s *Server) handleDecide(ctx context.Context, env *handlerEnv) (any, error) {
	var req apiv1.DecideRequest
	if err := decodeBody(env.body, &req); err != nil {
		return nil, err
	}
	d, f, err := parseDomainFormula(req.Domain, req.Sentence, nil)
	if err != nil {
		return nil, err
	}
	truth, err := finq.Decide(ctx, d, f)
	if err != nil {
		return nil, err
	}
	return apiv1.DecideResponse{Truth: truth}, nil
}

func (s *Server) handleQE(ctx context.Context, env *handlerEnv) (any, error) {
	var req apiv1.QERequest
	if err := decodeBody(env.body, &req); err != nil {
		return nil, err
	}
	d, f, err := parseDomainFormula(req.Domain, req.Formula, nil)
	if err != nil {
		return nil, err
	}
	g, err := finq.Eliminate(ctx, d, f)
	if err != nil {
		return nil, err
	}
	return apiv1.QEResponse{Formula: g.String()}, nil
}

func (s *Server) handleSafety(ctx context.Context, env *handlerEnv) (any, error) {
	var req apiv1.SafetyRequest
	if err := decodeBody(env.body, &req); err != nil {
		return nil, err
	}
	d, err := finq.Lookup(req.Domain)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	st := finq.NewState(finq.MustScheme(map[string]int{}))
	if len(req.State) > 0 {
		st, err = finq.ParseState(d, req.State)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
	}
	_, f, err := parseDomainFormula(req.Domain, req.Formula, st)
	if err != nil {
		return nil, err
	}
	// RelativeSafety has no context parameter; run it aside and give up at
	// the deadline, which endpoint answers with 503. The analysis goroutine
	// delivers into a buffered channel, so an abandoned one still exits
	// when it finishes.
	type outcome struct {
		verdict finq.Verdict
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := finq.RelativeSafety(d, st, f)
		ch <- outcome{v, err}
	}()
	select {
	case out := <-ch:
		if out.err != nil {
			return nil, out.err
		}
		return apiv1.SafetyResponse{Verdict: out.verdict}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	out := apiv1.DomainsResponse{}
	for _, d := range finq.Domains() {
		out = append(out, apiv1.Domain{Name: d.Name, Doc: d.Doc})
	}
	writeJSON(w, http.StatusOK, out)
}

// queryStatsJSON is the served shape of GET /v1/stats/queries; its wire
// contract is apiv1.QueryStatsResponse (Queries there is raw JSON so the
// client does not depend on the qstats internals).
type queryStatsJSON struct {
	By      string             `json:"by"`
	Queries []qstats.EntryView `json:"queries"`
}

// handleQueryStats serves GET /v1/stats/queries: the top-K per-query
// aggregates from the qstats registry, ordered by ?by=latency (default),
// count, or selectivity; ?k= bounds the result (default 20, <= 0 for
// all).
func (s *Server) handleQueryStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	by := r.URL.Query().Get("by")
	if by == "" {
		by = qstats.ByLatency
	}
	k := 20
	if kq := r.URL.Query().Get("k"); kq != "" {
		n, err := strconv.Atoi(kq)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad k %q: %v", kq, err)
			return
		}
		k = n
	}
	entries, err := qstats.Default().TopK(by, k)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if entries == nil {
		entries = []qstats.EntryView{}
	}
	writeJSON(w, http.StatusOK, queryStatsJSON{By: by, Queries: entries})
}

// handleDebugQueries serves GET /debug/queries: the same per-query stats
// as /v1/stats/queries rendered as a text table for humans.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	by := r.URL.Query().Get("by")
	entries, err := qstats.Default().TopK(by, 50)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	qstats.WriteTable(w, entries)
}
