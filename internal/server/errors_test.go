package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/apiv1"
)

// decodeEnvelope asserts a response body is the uniform error envelope
// with a code from the closed set and a trace ID, and returns it.
func decodeEnvelope(t *testing.T, data []byte) apiv1.ErrorEnvelope {
	t.Helper()
	var env apiv1.ErrorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v in %s", err, data)
	}
	if !apiv1.ValidCode(env.Error.Code) {
		t.Fatalf("code %q outside the closed set (%s)", env.Error.Code, data)
	}
	if env.Error.Message == "" {
		t.Fatalf("empty error message: %s", data)
	}
	if env.Error.TraceID == "" {
		t.Fatalf("error misses the trace ID: %s", data)
	}
	return env
}

// TestErrorEnvelopeEverywhere drives every deterministic error shape the
// service produces and asserts one uniform envelope: the {"error":
// {"code", "message", "trace_id"}} body with a code from the closed
// set. (429 sheds and panic 500s are asserted in the middleware tests,
// which arrange those conditions; they go through the same writeError.)
func TestErrorEnvelopeEverywhere(t *testing.T) {
	_, base := startServer(t, Config{MaxBody: 512})

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		status   int
		wantCode string
	}{
		{"method on eval", http.MethodGet, "/v1/eval", "", 405, apiv1.CodeMethodNotAllowed},
		{"method on domains", http.MethodPost, "/v1/domains", "{}", 405, apiv1.CodeMethodNotAllowed},
		{"bad JSON", http.MethodPost, "/v1/eval", "{", 400, apiv1.CodeBadRequest},
		{"unknown field", http.MethodPost, "/v1/eval", `{"formulae": "x = x"}`, 400, apiv1.CodeBadRequest},
		{"removed workers field", http.MethodPost, "/v1/eval", `{"domain": "eq", "formula": "x = x", "workers": 2}`, 400, apiv1.CodeBadRequest},
		{"unknown domain", http.MethodPost, "/v1/eval", `{"domain": "nope", "formula": "x = x"}`, 400, apiv1.CodeBadRequest},
		{"bad formula", http.MethodPost, "/v1/eval", `{"domain": "eq", "formula": "((("}`, 400, apiv1.CodeBadRequest},
		{"oversized body", http.MethodPost, "/v1/eval",
			`{"domain": "eq", "formula": "` + strings.Repeat("x = x & ", 200) + `x = x"}`,
			413, apiv1.CodePayloadTooLarge},
		{"eval failure", http.MethodPost, "/v1/decide", `{"domain": "eq", "sentence": "R(x)"}`, 422, apiv1.CodeEvalFailed},
		// A dvd modulus past int64: in both the automaton refuses the
		// modulus first, and Cooper's divisor guard answers.
		{"safety modulus beyond int64", http.MethodPost, "/v1/safety",
			`{"domain": "presburger", "formula": "dvd(9223372036854775808, x)"}`, 422, apiv1.CodeEvalFailed},
		{"enumerate modulus beyond int64", http.MethodPost, "/v1/eval",
			`{"domain": "presburger", "mode": "enumerate", "formula": "dvd(9223372036854775808, x)"}`, 422, apiv1.CodeEvalFailed},
		{"missing capture", http.MethodGet, "/debug/profiles?id=nope", "", 404, apiv1.CodeNotFound},
		{"bad stats key", http.MethodGet, "/v1/stats/queries?by=bogus", "", 400, apiv1.CodeBadRequest},
		{"stream on active", http.MethodPost, "/v1/eval?stream=1", `{"domain": "eq", "formula": "x = x"}`, 400, apiv1.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req *http.Request
			var err error
			if tc.body == "" {
				req, err = http.NewRequest(tc.method, base+tc.path, nil)
			} else {
				req, err = http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, data)
			}
			env := decodeEnvelope(t, data)
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code %q, want %q (%s)", env.Error.Code, tc.wantCode, data)
			}
		})
	}
}

// TestHostileFormulas: formulas shaped to overflow the stack, or to make
// a pass over the formula or its plan quadratic or exponential in the
// formula's length, each get an answer within the request deadline, and
// the server keeps serving. Every body fits the default 1 MiB limit.
// Under -race the cases shrink tenfold; CI also runs this test without
// -race, at full size.
func TestHostileFormulas(t *testing.T) {
	scale := 1
	if raceEnabled {
		scale = 10
	}
	reversedEqualities := func(n int) string {
		var b strings.Builder
		b.WriteString("R(x0)")
		for i := n; i > 0; i-- {
			fmt.Fprintf(&b, " & x%d=x%d", i, i-1)
		}
		return b.String()
	}
	cases := []struct {
		name     string
		formula  string
		timeout  time.Duration
		status   int
		wantCode string
	}{
		// Printing such a formula for the stats registry would overflow
		// the stack, a fatal error no recover catches.
		{"million nested negations", strings.Repeat("~", 1_000_000) + "R(x)", 10 * time.Second, 400, apiv1.CodeBadRequest},
		// Compiling asked the growing union chain for its columns once per
		// disjunct.
		{"200k disjuncts", strings.Repeat("R(x)|", 200_000/scale-1) + "R(x)", 10 * time.Second, 200, ""},
		// The same, for a disjunction another conjunct guards.
		{"140k guarded disjuncts", "R(x) & (lt(x, 0)" + strings.Repeat(" | R(x)", 140_000/scale) + ")", 10 * time.Second, 200, ""},
		// Each negation read the plan before it twice, doubling the plan.
		{"100k negations", "R(x)" + strings.Repeat(" & ~S(x)", 100_000/scale), 10 * time.Second, 200, ""},
		// Each correlated conjunct read the plan before it once per
		// disjunct, tripling the plan.
		{"40k correlated conjuncts", "R(x)" + strings.Repeat(" & (lt(x, 0) | R(x))", 40_000/scale), 10 * time.Second, 200, ""},
		// Compiling ranged one equality per pass over them; evaluating
		// the answer's chain of 60k extensions takes past any deadline,
		// so it stops there.
		{"60k reversed equalities", reversedEqualities(60_000 / scale), time.Second, 200, ""},
	}
	bases := map[time.Duration]string{}
	for _, tc := range cases {
		if _, ok := bases[tc.timeout]; !ok {
			_, bases[tc.timeout] = startServer(t, Config{EvalTimeout: tc.timeout})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := bases[tc.timeout]
			body := `{"domain": "presburger", "state": {"relations": {"R": [["1"], ["2"]], "S": [["2"]]}}, "formula": "` + tc.formula + `"}`
			start := time.Now()
			resp, err := http.Post(base+"/v1/eval", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			// The grace covers writing the answer after the deadline.
			if d := time.Since(start); d > tc.timeout+2*time.Second {
				t.Fatalf("answered after %v, past the %v deadline", d, tc.timeout)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %.200s", resp.StatusCode, tc.status, data)
			}
			if tc.wantCode != "" {
				if env := decodeEnvelope(t, data); env.Error.Code != tc.wantCode {
					t.Fatalf("code %q, want %q", env.Error.Code, tc.wantCode)
				}
			} else if !strings.Contains(string(data), `"complete":true`) && !strings.Contains(string(data), `"stopped":"deadline"`) {
				t.Fatalf("neither a complete answer nor one stopped by the deadline: %.200s", data)
			}
			health, err := http.Get(base + "/healthz")
			if err != nil {
				t.Fatalf("server stopped serving: %v", err)
			}
			health.Body.Close()
			if health.StatusCode != http.StatusOK {
				t.Fatalf("healthz %d after the request", health.StatusCode)
			}
		})
	}
}

// TestDecideAndQEStopAtDeadline: /v1/decide and /v1/qe over the
// Cooper-backed domains stop at the decide timeout and answer 503
// "deadline", within deadlineOverrun of it, on a sentence whose
// elimination runs for seconds (the root package's deadline test reads the
// same one).
func TestDecideAndQEStopAtDeadline(t *testing.T) {
	sentence, err := os.ReadFile("../../testdata/deadline_sentence.txt")
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 50 * time.Millisecond
	_, base := startServer(t, Config{DecideTimeout: deadline})
	for _, name := range []string{"nless", "presburger", "zless", "wordlex"} {
		decide, _ := json.Marshal(apiv1.DecideRequest{Domain: name, Sentence: string(sentence)})
		qe, _ := json.Marshal(apiv1.QERequest{Domain: name, Formula: string(sentence)})
		for path, body := range map[string][]byte{"/v1/decide": decide, "/v1/qe": qe} {
			start := time.Now()
			code, data := post(t, http.DefaultClient, base+path, string(body))
			took := time.Since(start)
			t.Logf("%s %s: %d after %v", path, name, code, took)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("%s %s: status %d, want 503: %s", path, name, code, data)
			}
			if env := decodeEnvelope(t, data); env.Error.Code != apiv1.CodeDeadline {
				t.Fatalf("%s %s: code %q, want %q", path, name, env.Error.Code, apiv1.CodeDeadline)
			}
			if bound := deadlineOverrun * deadline; took > bound {
				t.Errorf("%s %s: answered after %v, want within %v", path, name, took, bound)
			}
		}
	}
}
