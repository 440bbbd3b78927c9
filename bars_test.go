// The bench table: every performance bar of the repository, and the
// paper's theorems as checked rows, measured into one file. Rows are
// workloads, postures are the run configuration and the layer a row runs
// under, and each bar reads one or two (row, posture) cells. `make bench`
// (BENCH=1) measures every bar and writes BENCH_bars.json; plain `go test`
// runs each row once and checks its answer.
//
// The paper has no tables: its results are theorems, run as the
// experiments of DESIGN.md §3. Finite validity is not even recursively
// enumerable (Trakhtenbrot's theorem), so Theorems 3.1 and 3.3 can only be
// exercised on fixed decidable instances, and each paper row carries its
// expected truth value, verdict or quantifier-free result.
//
// Each group of bars in loops is measured by one loop, so a cell that two
// groups read is measured once in each. A loop interleaves its cells op by
// op, rotating which goes first, in rounds of at least two seconds. A
// round's reading for a bar is the median over the round's cycles of the
// pair of ops it compares; the bar keeps every round's reading and gates
// their median. Two ops run side by side see the same host speed, and the
// medians shed the stalls of tens of milliseconds that move a round's mean
// by up to ±10% on a shared host.
package finq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	finq "repro"
	"repro/apiv1"
	apiclient "repro/client"
	"repro/internal/autarith"
	"repro/internal/core"
	"repro/internal/deccache"
	"repro/internal/domain"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/obs/logctx"
	"repro/internal/obs/trace"
	"repro/internal/obs/tracectx"
	"repro/internal/parser"
	"repro/internal/presburger"
	"repro/internal/query"
	"repro/internal/runcfg"
	"repro/internal/server"
	"repro/internal/traces"
	"repro/internal/turing"
)

// row is one workload, in the shape of a test-program table: every op
// checks its answer against Expect.
type row struct {
	Name string
	// Op evaluates Query in State, in active mode ("") or by the §1.1
	// enumeration ("enumerate"). A paper row may instead "decide" its
	// sentence, eliminate its quantifiers ("qe"), decide its relative
	// "safety" in State, or verify the "totality" of Machine against the
	// candidate Query.
	Op      string
	Domain  string
	State   string // statejson
	Query   string
	Budget  *finq.EnumerationBudget
	Machine string
	// Corpus names a loadgen corpus, which the closed-loop postures replay
	// in place of Domain, State and Query.
	Corpus string
	Expect expect
}

// expect is an evaluation's row count and stop reason ("" when complete),
// or a paper op's truth value, verdict or quantifier-free formula as
// printed. A corpus row expects no request to fail.
type expect struct {
	Rows    int
	Stopped string
	Answer  string
}

// The paper rows' verdicts and truth value.
var (
	holds = expect{Answer: "holds"}
	fails = expect{Answer: "fails"}
	yes   = expect{Answer: "true"}
)

var rows = []row{
	// A two-variable join with a quantifier over eight words: enough
	// evaluator recursion that the evaluator, not the instrumentation
	// boundary, is the workload.
	{Name: "join", Domain: "eq", State: relation("F", 8, func(i int) []string {
		words := []string{"adam", "abel", "cain", "eve", "seth", "enos", "noah", "shem"}
		return []string{words[i], words[(i+1)%8]}
	}), Query: "F(x, y) & exists z. (F(y, z) & ~(z = x))", Expect: expect{Rows: 8}},
	// Sparse E1: membership in every fourth natural below 128. Each row's
	// probe scan decides again the failing candidates before it, the
	// repeated ground decisions the decision cache memoizes. The nless
	// cells pin the §1.1 loop to the Cooper decider (newOp); over
	// presburger the plan compiler answers.
	{Name: "e1-sparse-nless", Domain: "nless", State: sparseE1, Query: "exists y. (R(y) & x = y)",
		Op: "enumerate", Budget: &finq.EnumerationBudget{Rows: 42, Probe: 1 << 16}, Expect: expect{Rows: 32}},
	{Name: "e1-sparse", Domain: "presburger", State: sparseE1, Query: "exists y. (R(y) & x = y)",
		Op: "enumerate", Budget: &finq.EnumerationBudget{Rows: 42, Probe: 1 << 16}, Expect: expect{Rows: 32}},
	// E1 as `make trace-demo` runs it, with a 34-row answer: one op is a
	// whole enumeration, the scale at which per-request costs (qstats,
	// prof, the access log) are judged.
	{Name: "e1", Domain: "presburger", State: `{"relations": {"R": [["3"], ["5"], ["8"], ["13"], ["21"], ["34"]]}}`,
		Query: "exists y. (R(y) & lt(x, y))", Op: "enumerate",
		Budget: &finq.EnumerationBudget{Rows: 64, Probe: 4096}, Expect: expect{Rows: 34}},
	// The closure tier on a query outside the algebra tier, over two
	// 320-pair F on 40 values: random (seed 1), where the closure plan
	// beats the interpreter, and structured, where its range narrowing
	// loses (EXPERIMENTS.md, parallel evaluation note).
	{Name: "closure-random", Domain: "presburger", State: relation("F", 320, randomPair()),
		Query: closureQuery, Expect: expect{Rows: 39}},
	{Name: "closure-structured", Domain: "presburger", State: relation("F", 320, func(k int) []string {
		i, j := k/8, k%8
		return []string{strconv.Itoa(i), strconv.Itoa((i + 5*j + 1) % 40)}
	}), Query: closureQuery, Expect: expect{Rows: 40}},
	// Cheap queries over a four-row state: the wire cost a batch
	// amortizes.
	{Name: "e1-corpus", Corpus: "testdata/corpus/e1.json"},
	// An infinite answer stopped by its row budget: rows must stream
	// while the evaluation runs, not after it. Over zless each row costs
	// Cooper decisions; over ℕ the automaton finds the rows in
	// microseconds, and the request's fixed costs would decide the share.
	{Name: "stream", Domain: "zless", State: `{"relations": {"R": [["3"], ["7"], ["12"], ["20"]]}}`,
		Query: "~R(x)", Op: "enumerate", Budget: &finq.EnumerationBudget{Rows: 64, Probe: 1 << 20},
		Expect: expect{Rows: 64, Stopped: "budget"}},

	// The paper's theorems, one experiment of DESIGN.md §3 each. E3,
	// Theorem 2.2: the finitization of k unary atoms is finite, by the
	// served check (the automaton) and by Theorem 2.5's criterion (the
	// cooper posture), which pays one quantifier block per variable.
	{Name: "e3-finitize-1", Op: "safety", Domain: "presburger", State: r37, Query: finitize("R(x)"), Expect: holds},
	{Name: "e3-finitize-2", Op: "safety", Domain: "presburger", State: r37, Query: finitize("R(x) & R(y)"), Expect: holds},
	{Name: "e3-finitize-3", Op: "safety", Domain: "presburger", State: r37, Query: finitize("R(x) & R(y) & R(z)"), Expect: holds},
	// E4, Theorem 2.5: relative safety over two extensions of N<.
	{Name: "e4-finite", Op: "safety", Domain: "presburger", State: r149, Query: "R(x) & lt(x, 7)", Expect: holds},
	{Name: "e4-infinite", Op: "safety", Domain: "presburger", State: r149, Query: "~R(x)", Expect: fails},
	{Name: "e4-join", Op: "safety", Domain: "presburger", State: r149, Query: "R(x) & R(y) & lt(x, y)", Expect: holds},
	{Name: "e4-finite-nless", Op: "safety", Domain: "nless", State: r149, Query: "R(x) & lt(x, 7)", Expect: holds},
	{Name: "e4-infinite-nless", Op: "safety", Domain: "nless", State: r149, Query: "~R(x)", Expect: fails},
	{Name: "e4-join-nless", Op: "safety", Domain: "nless", State: r149, Query: "R(x) & R(y) & lt(x, y)", Expect: holds},
	// A divisibility atom with a modulus in the thousands: its residual
	// automaton has ~2d states, within the cap, and Cooper's criterion is
	// past its size guard, so the row has no cooper cell.
	{Name: "e4-modulus", Op: "safety", Domain: "presburger", State: r149, Query: "dvd(10000, x)", Expect: fails},
	// E5, Theorems 2.6/2.7: N′ QE over chains of 1–3 existentials, and
	// relative safety.
	{Name: "e5-qe-1", Op: "qe", Domain: "nsucc", Query: "exists v0. (s(s(v0)) = y)",
		Expect: expect{Answer: "(y != 0 & y != 1)"}},
	{Name: "e5-qe-2", Op: "qe", Domain: "nsucc", Query: "exists v0. (exists v1. (s(v0) = v1 & s(s(v1)) = y))",
		Expect: expect{Answer: "(y != 0 & y != 1 & y != 2)"}},
	{Name: "e5-qe-3", Op: "qe", Domain: "nsucc", Query: "exists v0. (exists v1. (s(v0) = v1 & exists v2. (s(v1) = v2 & s(s(v2)) = y)))",
		Expect: expect{Answer: "(y != 0 & y != 1 & y != 2 & y != 3)"}},
	{Name: "e5-safety", Op: "safety", Domain: "nsucc", State: `{"relations": {"R": [["3"], ["10"], ["17"]]}}`,
		Query: "exists y. (R(y) & s(x) = y)", Expect: holds},
	// E7, Theorem A.3 / Corollary A.4: trace-theory sentences over its
	// case families. The D/E system of e7-lemma-a2, which Lemma A.2's
	// criterion finds satisfiable, stands for E6.
	{Name: "e7-sorts", Op: "decide", Domain: "traces", Query: "forall x. (M(x) | W(x) | T(x) | O(x))", Expect: yes},
	{Name: "e7-lemma-a2", Op: "decide", Domain: "traces", Query: `exists x. (M(x) & E2(x, 11) & D3(x, "1&"))`, Expect: yes},
	{Name: "e7-counting", Op: "decide", Domain: "traces", Query: fmt.Sprintf("exists x. (P(%q, 1, x) & x != 11)", busy), Expect: yes},
	{Name: "e7-nested", Op: "decide", Domain: "traces", Query: "forall x. (M(x) -> exists p. (T(p) & m(p) = x))", Expect: yes},
	// E8, Theorem 3.1: a total machine's totality query is equivalent to
	// its Reach-signature characterization.
	{Name: "e8-totality", Op: "totality", Domain: "traces", Machine: busy,
		Query: fmt.Sprintf("T(x) & m(x) = %q & w(x) = c", busy), Expect: yes},
	// E9, Theorem 3.3: the halting reduction of a machine that halts on
	// "1" and of one that diverges there.
	halting("e9-halts", turing.BusyWork(3), holds),
	halting("e9-diverges", turing.LoopForever(), fails),
	// E15: Cooper's elimination against the automata engine, on three
	// sentence shapes and on 1–3 nested existentials.
	{Name: "e15-order", Op: "decide", Domain: "presburger", Query: "forall x. (exists y. lt(x, y))", Expect: yes},
	{Name: "e15-parity", Op: "decide", Domain: "presburger", Query: "forall x. (dvd(2, x) | dvd(2, add(x, 1)))", Expect: yes},
	{Name: "e15-linear", Op: "decide", Domain: "presburger", Query: "exists x. (exists y. (add(x, y) = 9 & lt(x, y)))", Expect: yes},
	{Name: "cooper-qe-1", Op: "decide", Domain: "presburger", Query: "exists x. lt(x, 20)", Expect: yes},
	{Name: "cooper-qe-2", Op: "decide", Domain: "presburger", Query: "exists x. (exists y. (lt(x, y) & lt(y, 20)))", Expect: yes},
	{Name: "cooper-qe-3", Op: "decide", Domain: "presburger",
		Query: "exists x. (exists y. (lt(x, y) & exists z. (lt(y, z) & lt(z, 20))))", Expect: yes},
	// The ablations. Expanding <-> duplicates subformulas, and without
	// intermediate simplification their dead sort branches multiply
	// through two nested eliminations; one more conjoined <-> ran past 11
	// minutes. Cooper's boundary set repeats y < x three times.
	{Name: "ablate-simplify", Op: "qe", Domain: "traces", Query: "forall x. (exists y. ((M(x) <-> M(y)) & x != y))", Expect: yes},
	{Name: "ablate-dedup", Op: "decide", Domain: "presburger",
		Query: "forall y. (lt(y, 10) -> exists x. (lt(y, x) & lt(y, x) & lt(y, x) & lt(x, 50)))", Expect: yes},
	// The grandfather join in active mode, which the algebra tier answers
	// with a hash join.
	{Name: "eval-active", Domain: "presburger", State: relation("F", 32, func(i int) []string {
		return []string{strconv.Itoa(i), strconv.Itoa(i + 1)}
	}), Query: "exists y. (F(x, y) & F(y, z))", Expect: expect{Rows: 31}},
}

const closureQuery = "forall y. (F(x, y) -> exists z. (F(y, z) & ~F(z, x)))"

var sparseE1 = relation("R", 32, func(i int) []string { return []string{strconv.Itoa(4 * i)} })

// The E3 and E4 states, R = {3, 7} and R = {1, 4, 9}.
const (
	r37  = `{"relations": {"R": [["3"], ["7"]]}}`
	r149 = `{"relations": {"R": [["1"], ["4"], ["9"]]}}`
)

// busy is a total machine's word: BusyWork(1) halts on every input.
var busy = turing.Encode(turing.BusyWork(1))

// finitize renders the Theorem 2.2 finitization of a formula.
func finitize(src string) string { return finq.Finitize(parser.MustParse(src)).String() }

// halting renders the Theorem 3.3 reduction of m on input "1" into a
// safety row.
func halting(name string, m *turing.Machine, want expect) row {
	f, st, err := finq.HaltingToRelativeSafety(turing.Encode(m), "1")
	if err != nil {
		panic(err)
	}
	state, err := finq.MarshalState(finq.MustLookup("traces"), st)
	if err != nil {
		panic(err)
	}
	return row{Name: name, Op: "safety", Domain: "traces", State: string(state), Query: f.String(), Expect: want}
}

// relation renders a statejson body holding one relation of n tuples.
func relation(name string, n int, tuple func(i int) []string) string {
	tuples := make([][]string, n)
	for i := range tuples {
		tuples[i] = tuple(i)
	}
	data, err := json.Marshal(map[string]any{"relations": map[string][][]string{name: tuples}})
	if err != nil {
		panic(err)
	}
	return string(data)
}

// randomPair draws distinct pairs on 40 values from seed 1.
func randomPair() func(int) []string {
	rng := rand.New(rand.NewSource(1))
	seen := map[[2]int]bool{}
	return func(int) []string {
		for {
			p := [2]int{rng.Intn(40), rng.Intn(40)}
			if !seen[p] {
				seen[p] = true
				return []string{strconv.Itoa(p[0]), strconv.Itoa(p[1])}
			}
		}
	}
}

// postures maps each posture to the run configuration its ops evaluate
// under; the zero value is finqd's. obs-off switches the process's metrics
// off instead (obs stays process-wide), which the loop sets before every
// op, so postures interleave op by op. The name also picks the layer the
// op enters (newOp): the evaluator (query), or the row's paper op through
// the facade or the domain's decider and eliminator, unless it names
// another. A bar times a decide or totality op past the decision cache
// (nocache, cooper) or on an engine without one, never a hit an earlier
// op left.
var postures = map[string]runcfg.Config{
	"default":       {},
	"obs-off":       {},
	"armed":         {}, // a private flight recorder armed on the context
	"traced":        {}, // armed, and under a W3C trace position
	"interpreted":   {NoPlan: true},
	"nocache":       {NoPlan: true, NoCache: true},
	"eval":          {}, // finq.Eval
	"eval-noqstats": {NoQStats: true},
	"eval-noprof":   {NoProf: true},
	"http-log":      {}, // Server.Handler() with the JSON access log
	"http-nolog":    {}, // Server.Handler() with a no-op log handler
	"single":        {}, // closed loop, one query per /v1/eval
	"batch":         {}, // closed loop, 64 queries per /v1/eval/batch
	"stream":        {}, // one NDJSON stream through the client

	"cooper":      {NoCache: true}, // presburger's decider is Cooper's elimination; safety, the finitization criterion
	"automaton":   {},              // autarith.Decide
	"no-dedup":    {},              // Cooper without boundary-set deduplication
	"no-simplify": {},              // trace QE without intermediate simplification
}

// bar reads one or two cells, named "row/posture". A "ratio" is a's time
// per unit of work over b's; "rows/s" is a's answer rows per second;
// "first row" is the share of a's streamed request before its first row;
// "allocs/op" is a's heap objects per unit. A bar passes when its median
// is at least min and under max (zero is no bound); a bar with neither
// reports a reading without gating it.
type bar struct {
	name     string
	a, b     string
	read     string
	min, max float64
}

// loops groups the bars by the loop that measures their cells, so the two
// cells a ratio compares run side by side. The last loop holds cells of
// at most ~10 ms: the paper's rows and the compiled E1 path, whose
// one-cell bars would get one cycle a round next to a second-long cell.
// Each paper row has an allocs/op bar at no more than 1.25× its reading;
// the safety rows have one on the served path (default, the automaton) and
// one on Theorem 2.5's criterion (cooper).
var loops = [][]bar{
	{{"obs on vs off, query.EvalActiveCtx", "join/default", "join/obs-off", "ratio", 0, 1.03}},
	{{"traced vs armed: span-identity minting", "join/traced", "join/armed", "ratio", 0, 1.03}},
	{
		{"nocache vs decision cache, nless, planner off", "e1-sparse-nless/nocache", "e1-sparse-nless/interpreted", "ratio", 2, 0},
		{"interpreted (nless) vs compiled (presburger)", "e1-sparse-nless/interpreted", "e1-sparse/default", "ratio", 10, 0},
	},
	{{"access log on vs no-op, Server.Handler()", "e1/http-log", "e1/http-nolog", "ratio", 0, 1.03}},
	{
		{"qstats on vs off, finq.Eval", "e1/eval", "e1/eval-noqstats", "ratio", 0, 1.03},
		{"prof on vs off, finq.Eval", "e1/eval", "e1/eval-noprof", "ratio", 0, 1.03},
	},
	{{"single vs batch-64, time per query", "e1-corpus/single", "e1-corpus/batch", "ratio", 5, 0}},
	{{"first streamed row's share of the request", "stream/stream", "", "first row", 0, 0.5}},
	{{"interpreter vs closure plan, random F", "closure-random/interpreted", "closure-random/default", "ratio", 0, 0}},
	{{"interpreter vs closure plan, structured F", "closure-structured/interpreted", "closure-structured/default", "ratio", 0, 0}},
	{
		{"compiled rows/s", "e1-sparse/default", "", "rows/s", 436, 0},
		{"default presburger path allocs/op", "e1-sparse/default", "", "allocs/op", 0, 5796},
		{"E3 finitization, 1 variable: allocs/op", "e3-finitize-1/default", "", "allocs/op", 0, 100},
		{"E3 finitization, 2 variables: allocs/op", "e3-finitize-2/default", "", "allocs/op", 0, 193},
		{"E3 finitization, 3 variables: allocs/op", "e3-finitize-3/default", "", "allocs/op", 0, 280},
		{"E4 finite query: allocs/op", "e4-finite/default", "", "allocs/op", 0, 62},
		{"E4 infinite query: allocs/op", "e4-infinite/default", "", "allocs/op", 0, 55},
		{"E4 join: allocs/op", "e4-join/default", "", "allocs/op", 0, 111},
		{"E4 finite query, nless: allocs/op", "e4-finite-nless/default", "", "allocs/op", 0, 62},
		{"E4 infinite query, nless: allocs/op", "e4-infinite-nless/default", "", "allocs/op", 0, 55},
		{"E4 join, nless: allocs/op", "e4-join-nless/default", "", "allocs/op", 0, 111},
		{"E4 wide modulus: allocs/op", "e4-modulus/default", "", "allocs/op", 0, 17},
		{"E3 finitization, 1 variable, Cooper: allocs/op", "e3-finitize-1/cooper", "", "allocs/op", 0, 1930},
		{"E3 finitization, 2 variables, Cooper: allocs/op", "e3-finitize-2/cooper", "", "allocs/op", 0, 8480},
		{"E3 finitization, 3 variables, Cooper: allocs/op", "e3-finitize-3/cooper", "", "allocs/op", 0, 24600},
		{"E4 finite query, Cooper: allocs/op", "e4-finite/cooper", "", "allocs/op", 0, 1040},
		{"E4 infinite query, Cooper: allocs/op", "e4-infinite/cooper", "", "allocs/op", 0, 828},
		{"E4 join, Cooper: allocs/op", "e4-join/cooper", "", "allocs/op", 0, 10100},
		{"E4 finite query, nless, Cooper: allocs/op", "e4-finite-nless/cooper", "", "allocs/op", 0, 1040},
		{"E4 infinite query, nless, Cooper: allocs/op", "e4-infinite-nless/cooper", "", "allocs/op", 0, 828},
		{"E4 join, nless, Cooper: allocs/op", "e4-join-nless/cooper", "", "allocs/op", 0, 10100},
		{"E5 N' QE, depth 1: allocs/op", "e5-qe-1/default", "", "allocs/op", 0, 53},
		{"E5 N' QE, depth 2: allocs/op", "e5-qe-2/default", "", "allocs/op", 0, 111},
		{"E5 N' QE, depth 3: allocs/op", "e5-qe-3/default", "", "allocs/op", 0, 166},
		{"E5 N' relative safety: allocs/op", "e5-safety/default", "", "allocs/op", 0, 230},
		{"E7 trace sorts: allocs/op", "e7-sorts/nocache", "", "allocs/op", 0, 248},
		{"E7 Lemma A.2 system: allocs/op", "e7-lemma-a2/nocache", "", "allocs/op", 0, 225},
		{"E7 trace counting: allocs/op", "e7-counting/nocache", "", "allocs/op", 0, 371},
		{"E7 nested quantifiers: allocs/op", "e7-nested/nocache", "", "allocs/op", 0, 337},
		{"E8 totality sentence: allocs/op", "e8-totality/nocache", "", "allocs/op", 0, 213},
		{"E9 halting reduction: allocs/op", "e9-halts/default", "", "allocs/op", 0, 50},
		{"E9 diverging reduction: allocs/op", "e9-diverges/default", "", "allocs/op", 0, 42},
		{"E15 order, Cooper: allocs/op", "e15-order/cooper", "", "allocs/op", 0, 136},
		{"E15 parity, Cooper: allocs/op", "e15-parity/cooper", "", "allocs/op", 0, 70},
		{"E15 linear, Cooper: allocs/op", "e15-linear/cooper", "", "allocs/op", 0, 341},
		{"Cooper QE, depth 1: allocs/op", "cooper-qe-1/cooper", "", "allocs/op", 0, 38},
		{"Cooper QE, depth 2: allocs/op", "cooper-qe-2/cooper", "", "allocs/op", 0, 157},
		{"Cooper QE, depth 3: allocs/op", "cooper-qe-3/cooper", "", "allocs/op", 0, 328},
		{"trace QE with simplification: allocs/op", "ablate-simplify/default", "", "allocs/op", 0, 540},
		{"Cooper with boundary dedup: allocs/op", "ablate-dedup/cooper", "", "allocs/op", 0, 253},
		{"active-domain grandfather join: allocs/op", "eval-active/default", "", "allocs/op", 0, 631},
		{"Theorem 2.5, Cooper vs automaton, E3 3 variables", "e3-finitize-3/cooper", "e3-finitize-3/default", "ratio", 0, 0},
		{"Theorem 2.5, Cooper vs automaton, E4 join", "e4-join/cooper", "e4-join/default", "ratio", 0, 0},
		{"E15 Cooper vs automaton, order", "e15-order/cooper", "e15-order/automaton", "ratio", 0, 0},
		{"E15 Cooper vs automaton, parity", "e15-parity/cooper", "e15-parity/automaton", "ratio", 0, 0},
		{"E15 Cooper vs automaton, linear", "e15-linear/cooper", "e15-linear/automaton", "ratio", 0, 0},
		{"Cooper vs automaton, depth 1", "cooper-qe-1/cooper", "cooper-qe-1/automaton", "ratio", 0, 0},
		{"Cooper vs automaton, depth 2", "cooper-qe-2/cooper", "cooper-qe-2/automaton", "ratio", 0, 0},
		{"Cooper vs automaton, depth 3", "cooper-qe-3/cooper", "cooper-qe-3/automaton", "ratio", 0, 0},
		{"trace QE without vs with simplification", "ablate-simplify/no-simplify", "ablate-simplify/default", "ratio", 0, 0},
		{"Cooper without vs with boundary dedup", "ablate-dedup/no-dedup", "ablate-dedup/cooper", "ratio", 0, 0},
	},
}

// cell is one row run in one posture, with its readings.
type cell struct {
	name    string
	row     row
	posture string
	op      func() (any, error)
	// ns[r][k] is the time per unit of work of round r's cycle k, and
	// first[r][k] a streamed op's time to its first row; allocs is the
	// heap objects per unit.
	ns, first [][]float64
	allocs    float64
}

// streamed is a stream op's answer.
type streamed struct {
	first, total time.Duration
	trailer      apiv1.StreamTrailer
}

// noopHandler is the no-op access log: Enabled says no before any
// attribute is built.
type noopHandler struct{}

func (noopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (noopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h noopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h noopHandler) WithGroup(string) slog.Handler           { return h }

// newCell builds the cell "row/posture"; a closed-loop op is one window
// of the given length after a warmup of 30% of it.
func newCell(t testing.TB, name string, window time.Duration) *cell {
	rowName, p, _ := strings.Cut(name, "/")
	i := slices.IndexFunc(rows, func(r row) bool { return r.Name == rowName })
	if _, ok := postures[p]; i < 0 || !ok {
		t.Fatalf("unknown cell %s", name)
	}
	return &cell{name: name, row: rows[i], posture: p, op: newOp(t, rows[i], p, window)}
}

// newOp builds one evaluation of r through the layer posture p names,
// under its run configuration.
func newOp(t testing.TB, r row, p string, window time.Duration) func() (any, error) {
	ctx := context.Background()
	if cfg := postures[p]; cfg != (runcfg.Config{}) {
		ctx = runcfg.With(ctx, cfg)
	}
	wire := apiv1.EvalRequest{Domain: r.Domain, State: json.RawMessage(r.State), Formula: r.Query, Mode: r.Op}
	if r.Budget != nil {
		wire.Budget = &apiv1.Budget{Rows: r.Budget.Rows, Probe: r.Budget.Probe}
	}
	switch p {
	case "single", "batch":
		corpus, err := loadgen.LoadCorpus(r.Corpus)
		if err != nil {
			t.Fatal(err)
		}
		apis := []*apiclient.Client{startServer(t)}
		opts := loadgen.Options{Mode: "eval", Workers: 4, Warmup: window * 3 / 10, Duration: window}
		if p == "batch" {
			opts.Mode, opts.Batch = "batch", 64
		}
		return func() (any, error) { return loadgen.Run(ctx, apis, corpus, opts) }
	case "stream":
		api := startServer(t)
		return func() (any, error) {
			s := &streamed{}
			t0 := time.Now()
			res, err := api.EvalStream(ctx, wire, apiv1.ContentTypeNDJSON, func([]string) error {
				if s.first == 0 {
					s.first = time.Since(t0)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			s.total, s.trailer = time.Since(t0), res.Trailer
			return s, nil
		}
	case "http-log", "http-nolog":
		logger := slog.New(noopHandler{})
		if p == "http-log" {
			var err error
			if logger, err = logctx.NewLogger(io.Discard, slog.LevelDebug, "json"); err != nil {
				t.Fatal(err)
			}
		}
		h := server.New(server.Config{Logger: logger}).Handler()
		body, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		return func() (any, error) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body)))
			return w, nil
		}
	}
	d := finq.MustLookup(r.Domain)
	// A row without a state parses over the Theorem 3.1 scheme {c}, whose
	// constant a totality candidate names.
	st := finq.NewState(finq.TotalityScheme())
	if r.State != "" {
		var err error
		if st, err = finq.ParseState(d, []byte(r.State)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := d.ParseWithConstants(r.Query, st.Scheme().Constants...)
	if err != nil {
		t.Fatal(err)
	}
	switch r.Op {
	case "decide":
		dec := d.Decider
		switch p {
		case "automaton":
			return func() (any, error) { return autarith.Decide(ctx, f) }
		case "no-dedup":
			dec = presburger.Eliminator{NoBoundDedup: true}
		}
		return func() (any, error) { return dec.Decide(ctx, f) }
	case "qe":
		elim := d.Eliminator
		if p == "no-simplify" {
			elim = traces.Eliminator{NoIntermediateSimplify: true}
		}
		return func() (any, error) { return elim.Eliminate(ctx, f) }
	case "safety":
		if p == "cooper" {
			// Theorem 2.5's own criterion, which the served path falls
			// back to: translate, then compare with the finitization.
			return func() (any, error) {
				pure, err := query.Translate(presburger.Domain{}, st, f)
				if err != nil {
					return nil, err
				}
				if finite, err := core.FinitizationCriterion(ctx, pure); err != nil || !finite {
					return finq.Fails, err
				}
				return finq.Holds, nil
			}
		}
		return func() (any, error) { return finq.RelativeSafety(d, st, f) }
	case "totality":
		return func() (any, error) { return finq.VerifyTotality(ctx, r.Machine, f) }
	}
	switch p {
	case "eval", "eval-noqstats", "eval-noprof":
		req := finq.Request{Domain: r.Domain, State: st, Formula: f, Mode: finq.EvalMode(r.Op), Budget: r.Budget}
		return func() (any, error) { return finq.Eval(ctx, req) }
	case "armed", "traced":
		rec := trace.NewRecorder()
		rec.Arm(1 << 12)
		t.Cleanup(rec.Disarm)
		ctx = trace.WithRecorder(ctx, rec)
		if p == "traced" {
			ctx = tracectx.With(ctx, tracectx.NewRoot())
		}
	}
	if r.Op == "" {
		return func() (any, error) { return query.EvalActiveCtx(ctx, d.Domain, st, f) }
	}
	// The §1.1 loop as the paper states it, on the domain's decider: the
	// capability that lets the automaton answer over ℕ is hidden, and each
	// op gets a fresh decision cache over the uncached decider, so the
	// cache postures measure the memoization within one enumeration, never
	// hits an earlier op left.
	var en query.Enumerable = struct{ query.Enumerable }{d.Domain.(query.Enumerable)}
	inner := d.Decider
	if n, ok := d.Domain.(domain.Naturals); ok {
		inner = presburger.Rewritten{Dom: n}
	}
	return func() (any, error) {
		dec := deccache.WrapDomain(d.Name, inner, deccache.DefaultCapacity)
		return query.EnumerationAnswerSinkCtx(ctx, en, dec, st, f, *r.Budget, nil)
	}
}

// startServer boots a quiet in-process finqd, shut down with the test.
func startServer(t testing.TB) *apiclient.Client {
	srv := server.New(server.Config{Logger: slog.New(noopHandler{})})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return apiclient.New("http://"+addr, nil)
}

// run executes one op in the cell's posture. It returns the answer, the
// op's wall time and a streamed op's time to its first row, and its units
// of work (a closed-loop window's queries, else one).
func (c *cell) run() (res any, ns, first, units float64, err error) {
	obs.SetEnabled(c.posture != "obs-off")
	t0 := time.Now()
	res, err = c.op()
	ns, units = float64(time.Since(t0)), 1
	switch r := res.(type) {
	case *loadgen.Result:
		ns, units = r.ElapsedSec*1e9, float64(r.Queries)
	case *streamed:
		ns, first = float64(r.total), float64(r.first)
	}
	return res, ns, first, units, err
}

// check compares an op's answer with the row's.
func (c *cell) check(res any, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	var got expect
	switch r := res.(type) {
	case *query.Answer:
		got.Rows = r.Rows.Len()
		if !r.Complete {
			got.Stopped = "budget"
		}
	case *finq.Result:
		got = expect{Rows: r.Answer.Rows.Len(), Stopped: r.Stopped}
	case *httptest.ResponseRecorder:
		var body apiv1.EvalResponse
		if err := json.Unmarshal(r.Body.Bytes(), &body); r.Code != http.StatusOK || err != nil || body.Answer == nil {
			return fmt.Errorf("%s: status %d: %s", c.name, r.Code, r.Body.Bytes())
		}
		got = expect{Rows: len(body.Answer.Rows), Stopped: body.Stopped}
	case *loadgen.Result:
		if r.Errors > 0 {
			return fmt.Errorf("%s: %d of %d requests failed", c.name, r.Errors, r.Requests)
		}
	case *streamed:
		got = expect{Rows: int(r.trailer.Rows), Stopped: r.trailer.Stopped}
	case bool:
		got.Answer = strconv.FormatBool(r)
	case finq.Verdict:
		got.Answer = r.String()
	case *finq.Formula:
		got.Answer = r.String()
	}
	if got != c.row.Expect {
		return fmt.Errorf("%s: answer %+v, want %+v", c.name, got, c.row.Expect)
	}
	return nil
}

const (
	rounds    = 7
	minRounds = 3
	roundDur  = 2 * time.Second
)

// measure interleaves a loop's cells op by op: each cycle runs every cell
// once, rotating which goes first. A round lasts roundDur and one cycle at
// least; the loop stops after rounds rounds, or after minRounds once
// rounds×roundDur has passed (the second-long ops of the nocache cell).
// Every op's answer is checked.
func measure(t *testing.T, cs []*cell) {
	start := time.Now()
	for r := 0; r < rounds && (r < minRounds || time.Since(start) < rounds*roundDur); r++ {
		for _, c := range cs {
			c.ns, c.first = append(c.ns, nil), append(c.first, nil)
		}
		for k, t0 := 0, time.Now(); k == 0 || time.Since(t0) < roundDur; k++ {
			for j := range cs {
				c := cs[(j+k)%len(cs)]
				res, ns, first, units, err := c.run()
				if err := c.check(res, err); err != nil {
					t.Fatal(err)
				}
				c.ns[r], c.first[r] = append(c.ns[r], ns/units), append(c.first[r], first/units)
			}
		}
	}
}

// allocsPerUnit runs a cell's ops for 100 ms, one op at least, and counts
// the heap objects allocated per unit of work.
func (c *cell) allocsPerUnit() float64 {
	var m0, m1 runtime.MemStats
	units := 0.0
	runtime.ReadMemStats(&m0)
	for t0 := time.Now(); units == 0 || time.Since(t0) < 100*time.Millisecond; {
		_, _, _, u, _ := c.run()
		units += u
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / units
}

// cellNames lists the one or two cells a bar reads.
func (b bar) cellNames() []string {
	if b.b == "" {
		return []string{b.a}
	}
	return []string{b.a, b.b}
}

// readings is a bar's reading per round: the median over the round's
// cycles (one reading for allocs/op).
func (b bar) readings(cells map[string]*cell) []float64 {
	a := cells[b.a]
	if b.read == "allocs/op" {
		return []float64{a.allocs}
	}
	out := make([]float64, len(a.ns))
	for r, ops := range a.ns {
		cycles := make([]float64, len(ops))
		for k, ns := range ops {
			switch b.read {
			case "rows/s":
				cycles[k] = float64(a.row.Expect.Rows) / (ns / 1e9)
			case "first row":
				cycles[k] = a.first[r][k] / ns
			default:
				cycles[k] = ns / cells[b.b].ns[r][k]
			}
		}
		out[r] = median(cycles)
	}
	return out
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// TestBenchRows runs every row once in its default posture and checks its
// answer, so a row that breaks fails plain `go test`, not only the bench.
// It builds every bar's cells, untimed, so a bar naming a missing row or
// posture fails here too, and runs the paper loop's cells once each.
func TestBenchRows(t *testing.T) {
	defer obs.SetEnabled(true)
	var cs []*cell
	for _, r := range rows {
		p := "default"
		if r.Corpus != "" {
			p = "single"
		}
		cs = append(cs, newCell(t, r.Name+"/"+p, 100*time.Millisecond))
	}
	for i, l := range loops {
		for _, b := range l {
			if (b.read == "ratio") != (b.b != "") {
				t.Errorf("bar %q reads %s of %d cells", b.name, b.read, len(b.cellNames()))
			}
			for _, name := range b.cellNames() {
				if c := newCell(t, name, 100*time.Millisecond); i == len(loops)-1 {
					cs = append(cs, c)
				}
			}
		}
	}
	for _, c := range cs {
		res, _, _, _, err := c.run()
		if err := c.check(res, err); err != nil {
			t.Error(err)
		}
	}
}

// TestBenchBars measures every bar and writes BENCH_bars.json. Gated
// behind BENCH=1 (`make bench`), so plain `go test` stays fast and leaves
// the checked-in measurement alone.
func TestBenchBars(t *testing.T) {
	if os.Getenv("BENCH") == "" {
		t.Skip("set BENCH=1 (or run `make bench`) to measure every bar and write BENCH_bars.json")
	}
	defer obs.SetEnabled(true)
	type cellOut struct {
		Loop        int       `json:"loop"`
		Cell        string    `json:"cell"`
		NsPerOp     float64   `json:"ns_per_op"`
		RoundsNs    []float64 `json:"rounds_ns"`
		AllocsPerOp float64   `json:"allocs_per_op"`
	}
	type barOut struct {
		Name     string    `json:"name"`
		Cells    string    `json:"cells"`
		Read     string    `json:"read"`
		Min      float64   `json:"min,omitempty"`
		Max      float64   `json:"max,omitempty"`
		Readings []float64 `json:"rounds"`
		Median   float64   `json:"median"`
		Pass     bool      `json:"pass"`
	}
	var cellsOut []cellOut
	var barsOut []barOut
	for i, l := range loops {
		cells := map[string]*cell{}
		var cs []*cell
		for _, b := range l {
			for _, name := range b.cellNames() {
				if cells[name] == nil {
					cells[name] = newCell(t, name, time.Second)
					cs = append(cs, cells[name])
				}
			}
		}
		measure(t, cs)
		for _, c := range cs {
			c.allocs = c.allocsPerUnit()
			perRound := make([]float64, len(c.ns))
			for r, ops := range c.ns {
				perRound[r] = median(ops)
			}
			cellsOut = append(cellsOut, cellOut{i, c.name, median(perRound), perRound, c.allocs})
		}
		for _, b := range l {
			rs := b.readings(cells)
			m := median(rs)
			o := barOut{b.name, strings.Join(b.cellNames(), " vs "), b.read, b.min, b.max, rs, m,
				(b.min == 0 || m >= b.min) && (b.max == 0 || m < b.max)}
			barsOut = append(barsOut, o)
			t.Logf("%-46s median %10.4g  rounds %.4g  pass %v", b.name, m, rs, o.Pass)
			if !o.Pass {
				t.Errorf("bar %q: median %.4g outside [%g, %g)", b.name, m, b.min, b.max)
			}
		}
	}
	data, err := json.MarshalIndent(map[string]any{
		"host":          fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version()),
		"round_seconds": roundDur.Seconds(),
		"cells":         cellsOut,
		"bars":          barsOut,
		"note":          "cells: per loop, time per unit of work (a query for the closed-loop postures, else an op), the median over each round's ops and over rounds, and heap objects per unit; bars: every round's reading (the median over its cycles of the compared ops) and their median, gated min <= median < max",
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_bars.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
