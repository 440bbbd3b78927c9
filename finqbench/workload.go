package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strconv"
)

// The three workloads. Every input is drawn from a PCG stream seeded by
// --seed, and every expected answer comes from the template's meaning,
// evaluated by the loops in this file over the generated state — never by
// calling the program. Working sets are sized clearly inside or clearly
// outside finqd's caches (plan LRU 512 plans, deccache 4096 entries per
// domain): a workload that mixes hits and misses repeats poorly. The
// stamp on every result carries these next to the program's capacities.
const (
	planCacheCap = 512
	decCacheCap  = 4096
)

// pointRelSize is the size of point's unary relation R.
const pointRelSize = 16

// enumRows is enum-stream's fixed answer size: every query's answer is
// exactly {0, …, enumRows-1}.
const enumRows = 6

// bigConst bounds the seeded constants of point and enum-stream: far more
// values than any pool holds calls, and duplicates are redrawn, so no
// formula repeats within a pool. A run that outruns its pool resends the
// pool's start, which every cache has evicted by then.
const bigConst = 1 << 30

// kind is the endpoint a call goes to.
type kind int

const (
	kindEval   kind = iota // POST /v1/eval, buffered JSON answer
	kindStream             // POST /v1/eval?stream=1, NDJSON rows
	kindSafety             // POST /v1/safety
)

// answer is the oracle's compact, order-independent summary of one
// query's result: the row count and a hash of the sorted rows, or (rows
// -1) a sentence's truth value or a safety verdict hashed as text. A
// request pool stores one per call, so the full rows never sit in memory.
type answer struct {
	rows int
	sum  uint64
}

// rowsAnswer summarizes a unary answer; rows may be in any order and is
// sorted in place.
func rowsAnswer(rows []int64) answer {
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	h := fnv.New64a()
	var buf [20]byte
	for _, v := range rows {
		h.Write(strconv.AppendInt(buf[:0], v, 10))
		h.Write([]byte{0})
	}
	return answer{rows: len(rows), sum: h.Sum64()}
}

func truthAnswer(b bool) answer {
	if b {
		return answer{rows: -1, sum: 1}
	}
	return answer{rows: -1, sum: 0}
}

func verdictAnswer(v string) answer {
	h := fnv.New64a()
	h.Write([]byte(v))
	return answer{rows: -1, sum: h.Sum64()}
}

// call is one request, which carries one query: its state, its formula and
// the oracle's answer. What every call of a workload shares — endpoint,
// mode — lives once in its spec.
type call struct {
	state   json.RawMessage
	formula string
	want    answer
}

// spec is what every call of a workload shares.
type spec struct {
	kind kind
	mode string
}

// state is a generated database state over ℕ: one unary relation R.
type state struct {
	R []int64
}

// json renders the state in the finq state format.
func (s *state) json() json.RawMessage {
	rels := map[string][][]string{}
	for _, v := range s.R {
		rels["R"] = append(rels["R"], []string{strconv.FormatInt(v, 10)})
	}
	data, err := json.Marshal(map[string]any{"relations": rels})
	if err != nil {
		panic(err) // plain maps of strings always marshal
	}
	return data
}

func (s *state) inR(v int64) bool {
	for _, r := range s.R {
		if r == v {
			return true
		}
	}
	return false
}

// distinct draws n distinct values from [lo, hi).
func distinct(rng *rand.Rand, n int, lo, hi int64) []int64 {
	seen := map[int64]bool{}
	out := make([]int64, 0, n)
	for len(out) < n {
		v := lo + rng.Int64N(hi-lo)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// gen is a workload's seeded request stream. Calls come out in a fixed
// order: the warm-up takes the first ones and the measured window
// continues the same stream, so warm-up and measured inputs never share
// a formula where the workload forbids repeats.
type gen struct {
	spec spec
	next func() call
}

// newGen returns the generator for a workload, or an error for an unknown
// name.
func newGen(workload string, seed uint64) (*gen, error) {
	rng := rand.New(rand.NewPCG(seed, 0x66696e7162656e63)) // "finqbenc"
	switch workload {
	case "point":
		return pointGen(rng), nil
	case "enum-stream":
		return enumGen(rng), nil
	case "safety":
		return safetyGen(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want point, enum-stream or safety)", workload)
}

// pool holds calls in pointer-free form — formulas in one string, states
// in one byte slice, answers as plain values — so the garbage collector
// never scans it: the benchmark's inputs add nothing to the GC work and
// little to the heap it measures finqd by.
type pool struct {
	text   string
	states []byte
	calls  []slot
}

// slot is one call: its formula in text, its state in states, and the
// oracle's answer.
type slot struct {
	formula, state [2]int32
	want           answer
}

// take materializes the next n calls of the stream. Consecutive calls
// with equal states share one copy.
func (g *gen) take(n int) *pool {
	p := &pool{}
	var text []byte
	var last json.RawMessage
	var lastState [2]int32
	for i := 0; i < n; i++ {
		c := g.next()
		if i == 0 || !bytes.Equal(c.state, last) {
			lastState = [2]int32{int32(len(p.states)), int32(len(p.states) + len(c.state))}
			p.states = append(p.states, c.state...)
			last = c.state
		}
		f := [2]int32{int32(len(text)), int32(len(text) + len(c.formula))}
		text = append(text, c.formula...)
		p.calls = append(p.calls, slot{formula: f, state: lastState, want: c.want})
	}
	p.text = string(text)
	return p
}

func (p *pool) len() int { return len(p.calls) }

// get returns call i, aliasing the pool's storage.
func (p *pool) get(i int) call {
	s := p.calls[i]
	return call{state: p.states[s.state[0]:s.state[1]:s.state[1]], formula: p.text[s.formula[0]:s.formula[1]], want: s.want}
}

// uniqueFormula redraws until render returns a formula not yet in seen.
func uniqueFormula(seen map[string]bool, render func() (string, answer)) (string, answer) {
	for {
		f, want := render()
		if !seen[f] {
			seen[f] = true
			return f, want
		}
	}
}

// pointTemplate is a safe-range or ground query: text is a format with
// one %d per constant, draw picks the constants, and want is the meaning.
// Safe-range answers equal the natural answers, so the oracle filters R.
type pointTemplate struct {
	text string
	draw func(rng *rand.Rand, s *state) []int64
	want func(s *state, k []int64) answer
}

// drawBig draws n constants below bigConst.
func drawBig(n int) func(rng *rand.Rand, s *state) []int64 {
	return func(rng *rand.Rand, s *state) []int64 {
		k := make([]int64, n)
		for i := range k {
			k[i] = rng.Int64N(bigConst)
		}
		return k
	}
}

var pointTemplates = []pointTemplate{
	{"R(x) & lt(x, %d)", drawBig(1), func(s *state, k []int64) answer {
		return rowsAnswer(filter(s.R, func(r int64) bool { return r < k[0] }))
	}},
	{"R(x) & ge(x, %d)", drawBig(1), func(s *state, k []int64) answer {
		return rowsAnswer(filter(s.R, func(r int64) bool { return r >= k[0] }))
	}},
	{"R(x) & lt(%d, x) & lt(x, %d)", drawBig(2), func(s *state, k []int64) answer {
		return rowsAnswer(filter(s.R, func(r int64) bool { return k[0] < r && r < k[1] }))
	}},
	{"exists y. (R(y) & lt(y, %d))", drawBig(1), func(s *state, k []int64) answer {
		return truthAnswer(len(filter(s.R, func(r int64) bool { return r < k[0] })) > 0)
	}},
	{"R(%d) | lt(%d, %d)", func(rng *rand.Rand, s *state) []int64 {
		k := drawBig(3)(rng, s)
		if rng.IntN(2) == 0 {
			k[0] = s.R[rng.IntN(len(s.R))] // half the probes hit R
		}
		return k
	}, func(s *state, k []int64) answer { return truthAnswer(s.inR(k[0]) || k[1] < k[2]) }},
}

func filter(vs []int64, keep func(int64) bool) []int64 {
	var out []int64
	for _, v := range vs {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

// pointGen: one query per POST /v1/eval over one 16-value R, every
// formula distinct, so the plan cache misses and compiles on every request.
func pointGen(rng *rand.Rand) *gen {
	s := &state{R: distinct(rng, pointRelSize, 0, bigConst)}
	st := s.json()
	seen := map[string]bool{}
	return &gen{spec: spec{kind: kindEval}, next: func() call {
		t := pointTemplates[rng.IntN(len(pointTemplates))]
		f, want := uniqueFormula(seen, func() (string, answer) {
			k := t.draw(rng, s)
			args := make([]any, len(k))
			for i, v := range k {
				args[i] = v
			}
			return fmt.Sprintf(t.text, args...), t.want(s, k)
		})
		return call{state: st, formula: f, want: want}
	}}
}

// enumTemplate is a finite query outside the safe-range fragment whose
// natural answer over ℕ lies below max(R): text has one %d for a constant
// k > max(R), and holds is its meaning.
type enumTemplate struct {
	text  string
	holds func(s *state, x, k int64) bool
}

var enumTemplates = []enumTemplate{
	{"exists y. (R(y) & lt(x, y)) & lt(x, %d)", func(s *state, x, k int64) bool {
		return x < k && len(filter(s.R, func(y int64) bool { return x < y })) > 0
	}},
	{"exists y. (R(y) & le(add(x, 1), y)) & le(x, %d)", func(s *state, x, k int64) bool {
		return x <= k && len(filter(s.R, func(y int64) bool { return x+1 <= y })) > 0
	}},
	{"exists y. (R(y) & gt(y, x)) & ~le(%d, x)", func(s *state, x, k int64) bool {
		return !(k <= x) && len(filter(s.R, func(y int64) bool { return y > x })) > 0
	}},
}

// enumAnswer is the natural answer of an enum template over ℕ. Every
// template implies x < y for some y in R, so no answer lies at or above
// max(R) and the loop's bound is exact.
func enumAnswer(t enumTemplate, s *state, k int64) answer {
	var rows []int64
	for x := int64(0); x <= maxOf(s.R); x++ {
		if t.holds(s, x, k) {
			rows = append(rows, x)
		}
	}
	return rowsAnswer(rows)
}

func maxOf(vs []int64) int64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// enumGen: one §1.1 enumeration per streamed POST /v1/eval, each over a
// fresh four-value R whose maximum is enumRows, so every answer is
// {0, …, enumRows-1}; the constant k is fresh per request, so every
// ground sentence is new to the decision cache.
func enumGen(rng *rand.Rand) *gen {
	seen := map[string]bool{}
	return &gen{spec: spec{kind: kindStream, mode: "enumerate"}, next: func() call {
		s := &state{R: append([]int64{enumRows}, distinct(rng, 3, 0, enumRows)...)}
		t := enumTemplates[rng.IntN(len(enumTemplates))]
		f, want := uniqueFormula(seen, func() (string, answer) {
			k := enumRows + 1 + rng.Int64N(bigConst)
			return fmt.Sprintf(t.text, k), enumAnswer(t, s, k)
		})
		return call{state: s.json(), formula: f, want: want}
	}}
}

// safetyTemplate is a one-free-variable query whose relative-safety
// verdict follows from its meaning: text has one %d for the constant k.
type safetyTemplate struct {
	text  string
	holds func(s *state, x, k int64) bool
}

var safetyTemplates = []safetyTemplate{
	{"R(x) | lt(x, %d)", func(s *state, x, k int64) bool { return s.inR(x) || x < k }},
	{"R(x) | lt(%d, x)", func(s *state, x, k int64) bool { return s.inR(x) || k < x }},
	{"exists y. (R(y) & lt(x, add(y, %d)))", func(s *state, x, k int64) bool {
		return len(filter(s.R, func(y int64) bool { return x < y+k })) > 0
	}},
	{"exists y. (R(y) & lt(y, add(x, %d)))", func(s *state, x, k int64) bool {
		return len(filter(s.R, func(y int64) bool { return y < x+k })) > 0
	}},
}

// safetyWindow is how far past the largest constant the oracle looks.
const safetyWindow = 64

// safetyVerdict decides finiteness of a safety template's answer by loops:
// without divisibility atoms a one-variable Presburger set is constant
// beyond its largest constant (here max(R)+k), so the answer is infinite
// exactly when some x in the window past that bound belongs to it.
func safetyVerdict(t safetyTemplate, s *state, k int64) answer {
	bound := maxOf(s.R) + k
	for x := bound + 1; x <= bound+safetyWindow; x++ {
		if t.holds(s, x, k) {
			return verdictAnswer("fails")
		}
	}
	return verdictAnswer("holds")
}

// safetyGen: one Theorem 2.5 relative-safety analysis per POST /v1/safety,
// each over a fresh four-value R; half the templates are finite, half
// infinite.
func safetyGen(rng *rand.Rand) *gen {
	return &gen{spec: spec{kind: kindSafety}, next: func() call {
		s := &state{R: distinct(rng, 4, 0, 64)}
		t := safetyTemplates[rng.IntN(len(safetyTemplates))]
		k := 1 + rng.Int64N(1000)
		return call{state: s.json(), formula: fmt.Sprintf(t.text, k), want: safetyVerdict(t, s, k)}
	}}
}
