// Package client is the typed Go client for the finqd /v1 API. It speaks
// exactly the apiv1 wire contract — typed request and response bodies,
// the uniform error envelope, and both streaming encodings — so programs
// drive the service without hand-built JSON: finqd's -smoke check, the
// cmd/finqload load generator, and the server's own tests all go through
// it.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	finq "repro"
	"repro/apiv1"
	"repro/internal/obs/tracectx"
)

// Client calls one finqd instance. The zero value is not usable; New
// binds the base URL.
//
// Distributed-trace propagation: when the call context carries a trace
// position (tracectx.With), every request goes out with `traceparent`
// (and `tracestate`) headers, so the server's spans become children of
// the caller's — one trace ID spans both processes. The server echoes
// the request span's position back as the response's `traceparent`;
// OnResponse observes it.
type Client struct {
	base string
	http *http.Client

	// OnResponse, when non-nil, observes every HTTP response's status and
	// headers before the body is decoded — such as the `traceparent` echo
	// (the server-side request span's position). Set it before issuing
	// requests; it runs on the calling goroutine.
	OnResponse func(status int, header http.Header)
}

// inject adds the outbound trace headers from ctx, if any.
func inject(ctx context.Context, h http.Header) {
	if tc, ok := tracectx.From(ctx); ok {
		h.Set("traceparent", tc.Traceparent())
		if tc.State != "" {
			h.Set("tracestate", tc.State)
		}
	}
}

// observe reports a response to the OnResponse hook, if set.
func (c *Client) observe(resp *http.Response) {
	if c.OnResponse != nil {
		c.OnResponse(resp.StatusCode, resp.Header)
	}
}

// New returns a client for the service at baseURL (for example
// "http://127.0.0.1:8080"). A nil httpClient means http.DefaultClient.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// APIError is a non-2xx response decoded from the uniform error envelope.
// Code is from the apiv1 closed set; Status is the HTTP status; TraceID
// names the failed request.
type APIError struct {
	Status  int
	Code    string
	Message string
	TraceID string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("finqd: %d %s: %s", e.Status, e.Code, e.Message)
}

// decodeError turns an error response into an *APIError, falling back to
// a synthesized envelope when the body is not one (a proxy's HTML 502,
// say), so callers always get the one error shape.
func decodeError(status int, body []byte) error {
	var env apiv1.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &APIError{
			Status:  status,
			Code:    env.Error.Code,
			Message: env.Error.Message,
			TraceID: env.Error.TraceID,
		}
	}
	return &APIError{
		Status:  status,
		Code:    apiv1.CodeInternal,
		Message: fmt.Sprintf("non-envelope error body: %.200s", body),
	}
}

// do runs one JSON request/response exchange. A nil in sends no body; a
// nil out discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", apiv1.ContentTypeJSON)
	}
	inject(ctx, req.Header)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.observe(resp)
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Eval runs POST /v1/eval (the buffered JSON response).
func (c *Client) Eval(ctx context.Context, req apiv1.EvalRequest) (*apiv1.EvalResponse, error) {
	var out apiv1.EvalResponse
	if err := c.do(ctx, http.MethodPost, "/v1/eval", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EvalBatch runs POST /v1/eval/batch.
func (c *Client) EvalBatch(ctx context.Context, req apiv1.BatchRequest) (*apiv1.BatchResponse, error) {
	var out apiv1.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/eval/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Decide runs POST /v1/decide.
func (c *Client) Decide(ctx context.Context, req apiv1.DecideRequest) (*apiv1.DecideResponse, error) {
	var out apiv1.DecideResponse
	if err := c.do(ctx, http.MethodPost, "/v1/decide", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QE runs POST /v1/qe.
func (c *Client) QE(ctx context.Context, req apiv1.QERequest) (*apiv1.QEResponse, error) {
	var out apiv1.QEResponse
	if err := c.do(ctx, http.MethodPost, "/v1/qe", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Safety runs POST /v1/safety.
func (c *Client) Safety(ctx context.Context, req apiv1.SafetyRequest) (*apiv1.SafetyResponse, error) {
	var out apiv1.SafetyResponse
	if err := c.do(ctx, http.MethodPost, "/v1/safety", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Domains runs GET /v1/domains.
func (c *Client) Domains(ctx context.Context) (apiv1.DomainsResponse, error) {
	var out apiv1.DomainsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/domains", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Version runs GET /v1/version.
func (c *Client) Version(ctx context.Context) (*apiv1.VersionResponse, error) {
	var out apiv1.VersionResponse
	if err := c.do(ctx, http.MethodGet, "/v1/version", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryStats runs GET /v1/stats/queries.
func (c *Client) QueryStats(ctx context.Context, by string, k int) (*apiv1.QueryStatsResponse, error) {
	path := "/v1/stats/queries"
	if by != "" {
		path += "?by=" + by
	}
	if k > 0 {
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		path += fmt.Sprintf("%sk=%d", sep, k)
	}
	var out apiv1.QueryStatsResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz runs GET /healthz.
func (c *Client) Healthz(ctx context.Context) (*apiv1.Health, error) {
	var out apiv1.Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Readyz runs GET /readyz. A draining server answers 503 with a body;
// that surfaces as an *APIError with Status 503.
func (c *Client) Readyz(ctx context.Context) (*apiv1.Health, error) {
	var out apiv1.Health
	if err := c.do(ctx, http.MethodGet, "/readyz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamResult is what a finished (or broken-off) streaming evaluation
// produced: the answer columns from the header and the trailer's result
// metadata. Rows were delivered to the OnRow callback as they arrived.
type StreamResult struct {
	// Vars are the answer columns, from the stream header.
	Vars []string
	// Trailer is the final metadata line/frame.
	Trailer apiv1.StreamTrailer
}

// EvalStream runs POST /v1/eval with streaming row delivery: onRow
// receives each answer row as the server flushes it, and the trailer's
// metadata comes back once the stream ends. The encoding is
// apiv1.ContentTypeNDJSON or apiv1.ContentTypeFrames ("" means NDJSON).
// A non-nil onRow error abandons the stream (the server sees the
// disconnect and stops the evaluation with stop reason "client-gone").
func (c *Client) EvalStream(ctx context.Context, req apiv1.EvalRequest, encoding string,
	onRow func(row []string) error) (*StreamResult, error) {

	if encoding == "" {
		encoding = apiv1.ContentTypeNDJSON
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/eval", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", apiv1.ContentTypeJSON)
	hreq.Header.Set("Accept", encoding)
	inject(ctx, hreq.Header)
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.observe(resp)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, decodeError(resp.StatusCode, body)
	}
	if encoding == apiv1.ContentTypeFrames {
		return readFrameStream(resp.Body, onRow)
	}
	return readNDJSONStream(resp.Body, onRow)
}

// readNDJSONStream consumes the line encoding: a header line, row lines
// (distinguished by their "row" key), and a trailer line.
func readNDJSONStream(r io.Reader, onRow func([]string) error) (*StreamResult, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	var hdr apiv1.StreamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("client: bad stream header: %w", err)
	}
	out := &StreamResult{Vars: hdr.Vars}
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Row *[]string `json:"row"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("client: bad stream line: %w", err)
		}
		if probe.Row != nil {
			if onRow != nil {
				if err := onRow(*probe.Row); err != nil {
					return out, err
				}
			}
			continue
		}
		if err := json.Unmarshal(line, &out.Trailer); err != nil {
			return nil, fmt.Errorf("client: bad stream trailer: %w", err)
		}
		return out, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// readFrameStream consumes the binary frame encoding via the finq frame
// codec.
func readFrameStream(r io.Reader, onRow func([]string) error) (*StreamResult, error) {
	br := bufio.NewReader(r)
	out := &StreamResult{}
	sawHeader := false
	for {
		typ, payload, err := finq.ReadFrame(br)
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF // no trailer seen
		}
		if err != nil {
			return nil, err
		}
		switch typ {
		case finq.FrameHeader:
			var hdr apiv1.StreamHeader
			if err := json.Unmarshal(payload, &hdr); err != nil {
				return nil, fmt.Errorf("client: bad header frame: %w", err)
			}
			out.Vars = hdr.Vars
			sawHeader = true
		case finq.FrameRow:
			cells, err := finq.DecodeRowPayload(payload)
			if err != nil {
				return nil, err
			}
			if onRow != nil {
				if err := onRow(cells); err != nil {
					return out, err
				}
			}
		case finq.FrameTrailer:
			if err := json.Unmarshal(payload, &out.Trailer); err != nil {
				return nil, fmt.Errorf("client: bad trailer frame: %w", err)
			}
			if !sawHeader {
				return nil, fmt.Errorf("client: trailer before header")
			}
			return out, nil
		default:
			return nil, fmt.Errorf("client: unknown frame type %q", typ)
		}
	}
}
