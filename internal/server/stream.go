package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	finq "repro"
	"repro/apiv1"
)

// Streaming row delivery for POST /v1/eval in enumerate mode: instead of
// buffering the whole answer until the budget ends, rows are written and
// flushed as the §1.1 algorithm produces them — a header line/frame with
// the answer columns, one line/frame per row, and a trailer carrying the
// result metadata (rows, complete/partial, stop reason, late errors).
//
// Negotiation: ?stream=1 selects NDJSON; an Accept header naming
// application/x-ndjson or application/x-finq-frames selects that
// encoding. Everything else gets the buffered JSON response.
//
// Client disconnect is a first-class stop reason. The eval context is
// rebuilt from the request context with context.WithoutCancel (keeping
// the trace position and deadline but dropping the transport's own cancel),
// and a watcher cancels it with cause finq.ErrClientGone the moment the
// client goes away — so the evaluation stops between rows, the partial
// result is attributed "client-gone" (not a generic "canceled") in spans,
// the access log, and per-query stats, and the worker slot frees
// immediately instead of at the deadline.

// streamEncoding reports the negotiated streaming content type for the
// request, or "" for the default buffered JSON response.
func streamEncoding(r *http.Request) string {
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, apiv1.ContentTypeFrames):
		return apiv1.ContentTypeFrames
	case strings.Contains(accept, apiv1.ContentTypeNDJSON):
		return apiv1.ContentTypeNDJSON
	case r.URL.Query().Get("stream") == "1":
		return apiv1.ContentTypeNDJSON
	}
	return ""
}

// rowStream is one streaming encoding: NDJSON lines or binary frames.
// Writers flush after the header and after every row, so the client sees
// each row as it is found; the trailer rides the handler's final flush.
type rowStream interface {
	header(vars []string) error
	row(cells []string) error
	trailer(t apiv1.StreamTrailer) error
}

// streamEval takes over a negotiated streaming response. Validation
// errors surface before the status line is written (a normal error
// response); once streaming starts, failures ride the trailer.
func (s *Server) streamEval(ctx context.Context, env *handlerEnv, enc string,
	d finq.DomainInfo, lreq finq.Request) (any, error) {

	if lreq.Mode != finq.ModeEnumerate {
		return nil, errf(http.StatusBadRequest,
			"streaming requires mode %q (got %q); active-domain answers arrive whole",
			finq.ModeEnumerate, lreq.Mode)
	}

	// The eval context: the request's values (trace) and deadline without the
	// transport's cancellation, plus a cancel cause the watcher below fires
	// on disconnect — so a client-gone stop is attributed deterministically
	// rather than racing the transport's own context teardown.
	base := context.WithoutCancel(ctx)
	if dl, ok := ctx.Deadline(); ok {
		var cancelDL context.CancelFunc
		base, cancelDL = context.WithDeadline(base, dl)
		defer cancelDL()
	}
	evalCtx, cancel := context.WithCancelCause(base)
	defer cancel(nil)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-env.r.Context().Done():
			cancel(finq.ErrClientGone)
		case <-done:
		}
	}()

	rc := http.NewResponseController(env.w)
	env.w.Header().Set("Content-Type", enc)
	env.w.WriteHeader(http.StatusOK)
	var out rowStream
	switch enc {
	case apiv1.ContentTypeFrames:
		out = &frameStream{w: env.w, rc: rc}
	default:
		out = &ndjsonStream{w: env.w, rc: rc}
	}

	vars := lreq.Formula.FreeVars()
	if err := out.header(vars); err != nil {
		// The response is already broken; there is nothing left to write.
		return streamed{}, nil
	}

	var rows int64
	lreq.OnRow = func(vars []string, row finq.Tuple) error {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = d.Domain.ConstName(v)
		}
		if err := out.row(cells); err != nil {
			// The write failed: the client is gone. Returning ErrClientGone
			// stops the enumeration and stamps the partial result.
			return finq.ErrClientGone
		}
		rows++
		return nil
	}

	res, err := finq.Eval(evalCtx, lreq)
	t := apiv1.StreamTrailer{Rows: rows}
	if st := stateFrom(ctx); st != nil {
		// The trailer quotes the trace ID (the headers are long gone by
		// now), so a streamed partial answer still links to its trace.
		t.TraceID = st.traceID
	}
	switch {
	case err != nil:
		// The status line was 200 before evaluation began; the failure
		// rides the trailer with its wire code.
		t.Error = &apiv1.Error{Code: apiv1.CodeEvalFailed, Message: err.Error()}
		noteStopped(ctx, "error")
	default:
		t.Complete = res.Answer != nil && res.Answer.Complete
		t.Partial = res.Partial
		t.Stopped = res.Stopped
		if len(vars) == 0 && res.Answer != nil {
			truth := res.Answer.Rows.Len() > 0
			t.Truth = &truth
		}
		noteRows(ctx, rows)
		noteStopped(ctx, res.Stopped)
	}
	out.trailer(t)
	return streamed{}, nil
}

// ndjsonStream writes the stream as one JSON value per line.
type ndjsonStream struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (s *ndjsonStream) writeLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := s.w.Write(append(data, '\n')); err != nil {
		return err
	}
	return s.rc.Flush()
}

func (s *ndjsonStream) header(vars []string) error {
	if vars == nil {
		vars = []string{}
	}
	return s.writeLine(apiv1.StreamHeader{Vars: vars})
}

func (s *ndjsonStream) row(cells []string) error {
	return s.writeLine(apiv1.StreamRow{Row: cells})
}

func (s *ndjsonStream) trailer(t apiv1.StreamTrailer) error {
	return s.writeLine(t)
}

// frameStream writes the stream in the compact binary frame encoding
// (finq.AppendFrame and friends): header and trailer frames carry JSON
// payloads, row frames carry length-prefixed cells with no JSON at all.
type frameStream struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	buf []byte
}

func (s *frameStream) writeFrames() error {
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	if err != nil {
		return err
	}
	return s.rc.Flush()
}

func (s *frameStream) header(vars []string) error {
	if vars == nil {
		vars = []string{}
	}
	payload, err := json.Marshal(apiv1.StreamHeader{Vars: vars})
	if err != nil {
		return err
	}
	s.buf = finq.AppendFrame(s.buf, finq.FrameHeader, payload)
	return s.writeFrames()
}

func (s *frameStream) row(cells []string) error {
	s.buf = finq.AppendRowFrame(s.buf, cells)
	return s.writeFrames()
}

func (s *frameStream) trailer(t apiv1.StreamTrailer) error {
	payload, err := json.Marshal(t)
	if err != nil {
		return err
	}
	s.buf = finq.AppendFrame(s.buf, finq.FrameTrailer, payload)
	return s.writeFrames()
}
