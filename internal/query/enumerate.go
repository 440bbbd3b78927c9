package query

import (
	"context"
	"fmt"

	"repro/internal/autarith"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/presburger"
)

// EnumerationBudget bounds the §1.1 algorithm: Rows caps the number of
// answer rows produced, Probe caps how many candidate tuples are tested per
// row. The algorithm itself always terminates on finite queries; the budget
// makes it total on infinite ones too, returning an incomplete answer.
type EnumerationBudget struct {
	Rows  int
	Probe int
}

// DefaultBudget is a budget suitable for the examples and tests.
var DefaultBudget = EnumerationBudget{Rows: 1 << 10, Probe: 1 << 16}

// Enumerable is the capability bundle the §1.1 algorithm needs: "consider a
// countable domain with decidable theory [and] constants for all elements
// of the domain".
type Enumerable interface {
	domain.Domain
	domain.Enumerator
}

// RowSink receives answer rows as the enumeration finds them, before the
// final Answer is assembled — the hook streaming delivery hangs on. The
// tuple is shared with the answer under construction and must not be
// mutated. A non-nil error stops the enumeration: the rows so far come
// back as a partial answer alongside the error wrapped in SinkError, so
// callers can tell a delivery failure (client gone) from an evaluation
// failure.
type RowSink func(vars []string, row db.Tuple) error

// SinkError wraps a RowSink's error so callers can distinguish delivery
// failures from evaluation failures.
type SinkError struct{ Err error }

func (e *SinkError) Error() string { return "query: row sink: " + e.Err.Error() }

// Unwrap exposes the sink's error to errors.Is/As.
func (e *SinkError) Unwrap() error { return e.Err }

// deliverRow hands a freshly found row to the sink, if any, wrapping a
// sink failure.
func deliverRow(sink RowSink, vars []string, row db.Tuple) error {
	if sink == nil {
		return nil
	}
	if err := sink(vars, row); err != nil {
		return &SinkError{Err: err}
	}
	return nil
}

// EnumerationAnswerSinkCtx runs the query-answering algorithm of §1.1 of
// the paper. The query is first translated into a pure domain formula
// φ'(x̄) over the state. Then, repeatedly:
//
//   - the sentence ∃x̄ (φ'(x̄) ∧ x̄ ∉ found) is decided; if false, the answer
//     is complete;
//   - otherwise candidate tuples ā are enumerated and the ground sentences
//     φ'(ā) decided one at a time until the next row is found.
//
// "Note that, at least for safe queries, this algorithm always stops." For
// unsafe queries in unlucky states it would not, so the budget caps it and
// Complete is reported false.
//
// The loop's two questions are answered by a rowSource, tried in order:
// an algebra-tier plan's materialized answer when the planner has one
// (tableSource), then for Presburger arithmetic the automaton of φ'
// (dfaSource), then the domain's decider (decideSource). The table and the
// automaton answer by count and by membership, deciding nothing; all three
// give the same rows, order, and budget accounting.
//
// The context is polled before every existential decision, handed to the
// decider and to the automaton's construction (so a cancellation can also
// abandon a quantifier elimination or a compile in flight), and polled
// between probe candidates. On cancellation the rows
// found so far are returned with Complete=false alongside the context's
// error — one request's deadline yields a partial answer, not a wasted
// computation.
//
// A non-nil sink receives each answer row as it is found, before the next
// existential decision — the streaming endpoint flushes rows to the client
// from here. Row order, budget accounting, and partial-answer behavior are
// identical with and without a sink.
func EnumerationAnswerSinkCtx(ctx context.Context, dom Enumerable, dec domain.Decider, st *db.State,
	f *logic.Formula, budget EnumerationBudget, sink RowSink) (*Answer, error) {

	ctx, sp := obs.StartSpanCtx(ctx, "query.enumerate")
	defer sp.End()
	mEnumCalls.Inc()
	var vars []string
	var src rowSource
	if p, tab := planAnswer(ctx, sp, dom, st, f); tab != nil {
		vars, src = p.Vars(), tableSource{rows: tab}
	} else {
		pure, err := Translate(dom, st, f)
		if err != nil {
			return nil, err
		}
		vars = pure.FreeVars()
		if len(vars) == 0 {
			// Boolean query: a single decision.
			mEnumDecisions.Inc()
			v, err := dec.Decide(ctx, pure)
			if err != nil {
				return nil, err
			}
			return NewBoolAnswer(v), nil
		}
		src, err = pureSource(ctx, dom, dec, vars, pure)
		if err != nil {
			return &Answer{Vars: vars, Rows: db.NewRelation(len(vars))}, err
		}
	}
	sp.ArgStr("source", src.name())
	return enumerate(ctx, sp, dom, src, vars, budget, sink)
}

// pureSource picks the source for φ' when no plan table applies: the
// automaton for Presburger arithmetic, unless its construction fails (the
// size cap refused it, or φ' is outside what it compiles), and the decider
// otherwise. Only a cancellation is an error.
func pureSource(ctx context.Context, dom Enumerable, dec domain.Decider, vars []string,
	pure *logic.Formula) (rowSource, error) {

	if _, ok := dom.(presburger.Domain); ok {
		d, err := autarith.Compile(ctx, pure)
		if err == nil {
			return newDFASource(d), nil
		}
		if canceledErr(err) {
			return nil, err
		}
	}
	return &decideSource{dom: dom, dec: dec, vars: vars, pure: pure, remaining: pure}, nil
}

// enumerate is the §1.1 loop over a source of φ' over vars.
func enumerate(ctx context.Context, sp *obs.Span, dom Enumerable, src rowSource, vars []string,
	budget EnumerationBudget, sink RowSink) (*Answer, error) {

	ans := &Answer{Vars: vars, Rows: db.NewRelation(len(vars)), Complete: false}
	// foundKeys mirrors the rows found so far as a set, so the probe scan
	// skips them without asking the source.
	foundKeys := map[string]bool{}
	rows := 0
	for rows < budget.Rows {
		// Each iteration (one "more rows?" question plus the probe scan for
		// the next row) is a child span: in an exported trace the successive
		// "row" spans make the per-row cost growth of E1 directly visible.
		rsp := sp.Child("row")
		rsp.Arg("row_index", int64(rows))
		more, err := src.more(ctx, rsp, rows)
		if err != nil {
			rsp.End()
			if canceledErr(err) {
				sp.Arg("rows", int64(ans.Rows.Len()))
				return ans, err
			}
			return nil, err
		}
		if !more {
			rsp.End()
			ans.Complete = true
			mEnumRows.Add(int64(ans.Rows.Len()))
			sp.Arg("rows", int64(ans.Rows.Len()))
			return ans, nil
		}
		row, probes, err := nextRow(ctx, dom, src, foundKeys, len(vars), budget.Probe)
		rsp.Arg("probes", int64(probes))
		rsp.End()
		if err != nil {
			if canceledErr(err) {
				sp.Arg("rows", int64(ans.Rows.Len()))
				return ans, err
			}
			return nil, err
		}
		if row == nil {
			mEnumExhausted.Inc()
			mEnumRows.Add(int64(ans.Rows.Len()))
			sp.Arg("rows", int64(ans.Rows.Len()))
			return ans, nil // probe budget exhausted
		}
		src.found(row)
		foundKeys[row.Key()] = true
		rows++
		if err := ans.Rows.Add(row); err != nil {
			return nil, err
		}
		if err := deliverRow(sink, vars, row); err != nil {
			sp.Arg("rows", int64(ans.Rows.Len()))
			return ans, err
		}
	}
	mEnumExhausted.Inc()
	mEnumRows.Add(int64(ans.Rows.Len()))
	sp.Arg("rows", int64(ans.Rows.Len()))
	return ans, nil
}

// rowSource answers the two questions the §1.1 loop asks — is there a row
// beyond the n found so far, and is this candidate a row? — and is told
// of each row found.
type rowSource interface {
	more(ctx context.Context, rsp *obs.Span, n int) (bool, error)
	member(ctx context.Context, tuple db.Tuple) (bool, error)
	found(row db.Tuple)
	// name is the source's trace label: table, automaton or decider.
	name() string
}

// decideSource asks the domain's decision procedure about φ', the
// algorithm as the paper states it. Two cost structures of the naive
// transcription are avoided. The exclusion conjunction ⋀ x̄ ∉ found in
// remaining is extended by one clause per found row instead of being
// rebuilt from φ' each iteration (the resulting formula is node-for-node
// the same, since formulas are immutable and share structure). And
// membership grounds φ' itself — the loop skips already-found rows by a
// set lookup rather than re-asking the decider — so the same ground
// sentence is asked for a candidate on every row that re-scans past it,
// and with a memoized decider (internal/deccache) the re-scanned prefix of
// each row's probe sequence costs map lookups, not quantifier
// eliminations.
type decideSource struct {
	dom             Enumerable
	dec             domain.Decider
	vars            []string
	pure, remaining *logic.Formula
}

func (s *decideSource) more(ctx context.Context, rsp *obs.Span, _ int) (bool, error) {
	if rsp.Traced() {
		rsp.Arg("formula_size", int64(s.remaining.Size()))
	}
	mEnumDecisions.Inc()
	return s.dec.Decide(ctx, logic.ExistsAll(s.vars, s.remaining))
}

func (s *decideSource) member(ctx context.Context, tuple db.Tuple) (bool, error) {
	ground := s.pure
	for j, name := range s.vars {
		ground = logic.Subst(ground, name, logic.Const(s.dom.ConstName(tuple[j])))
	}
	ok, err := s.dec.Decide(ctx, ground)
	if err != nil && !canceledErr(err) {
		return false, fmt.Errorf("query: deciding ground instance: %w", err)
	}
	return ok, err
}

func (*decideSource) name() string { return "decider" }

// found adds the exclusion conjunct ¬(x̄ = row).
func (s *decideSource) found(row db.Tuple) {
	var eqs []*logic.Formula
	for i, name := range s.vars {
		eqs = append(eqs, logic.Eq(logic.Var(name), logic.Const(s.dom.ConstName(row[i]))))
	}
	s.remaining = logic.And(s.remaining, logic.Not(logic.And(eqs...)))
}

// dfaSource answers the loop's questions from one automaton for φ'
// (internal/autarith), built once per enumeration: membership is a walk
// over the candidate's bits, and there is a row beyond the n found iff
// the automaton's tuple count exceeds n — every found row is a member, so
// that is the decider's ∃x̄ (φ'(x̄) ∧ x̄ ∉ found). It decides nothing.
type dfaSource struct {
	dfa      *autarith.DFA
	count    int64
	infinite bool
	// vals is the candidate's scratch, in track order (the sorted free
	// variables, which are the loop's vars).
	vals []int64
}

func newDFASource(d *autarith.DFA) *dfaSource {
	n, inf := d.Count()
	return &dfaSource{dfa: d, count: n, infinite: inf, vals: make([]int64, len(d.Vars))}
}

func (s *dfaSource) more(ctx context.Context, _ *obs.Span, n int) (bool, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return false, err
		}
	}
	return s.infinite || int64(n) < s.count, nil
}

func (s *dfaSource) member(_ context.Context, tuple db.Tuple) (bool, error) {
	for i, v := range tuple {
		n, ok := v.(domain.Int)
		if !ok {
			return false, fmt.Errorf("query: non-integer candidate %v", v)
		}
		s.vals[i] = int64(n)
	}
	return s.dfa.Runs(s.vals)
}

func (*dfaSource) found(db.Tuple) {}

func (*dfaSource) name() string { return "automaton" }

// NaturalMember decides whether a tuple belongs to a query's answer under
// the natural (unrestricted) semantics: the query is translated to a pure
// formula, the tuple substituted, and the ground sentence decided under
// ctx. This is the membership question that remains answerable even for
// infinite answers — the observation behind the paper's §1.2.
func NaturalMember(ctx context.Context, dom domain.Domain, dec domain.Decider, st *db.State,
	f *logic.Formula, tuple map[string]domain.Value) (bool, error) {

	pure, err := Translate(dom, st, f)
	if err != nil {
		return false, err
	}
	for _, v := range pure.FreeVars() {
		val, ok := tuple[v]
		if !ok {
			return false, fmt.Errorf("query: tuple misses variable %q", v)
		}
		pure = logic.Subst(pure, v, logic.Const(dom.ConstName(val)))
	}
	return dec.Decide(ctx, pure)
}

// NewBoolAnswer builds the answer of a boolean (no free variables) query:
// a single marker row when true, no rows when false. It is the
// construction the evaluators use internally, exported so wire codecs
// (statejson) can rebuild boolean answers.
func NewBoolAnswer(truth bool) *Answer {
	ans := &Answer{Vars: nil, Rows: db.NewRelation(1), Complete: true}
	if truth {
		if err := ans.Rows.Add(db.Tuple{markerTrue{}}); err != nil {
			panic(err) // arity 1 by construction
		}
	}
	return ans
}

// nextRow enumerates candidate tuples ("let us order all tuples of elements
// of the domain of the size of x̄") and returns the first one the source
// accepts plus the number of probes spent, or nil when the probe budget
// runs out. Candidates already in found consume a probe — exactly as they
// did when the exclusion conjunction was grounded and decided for them —
// but are skipped by the set lookup instead of being asked.
func nextRow(ctx context.Context, dom Enumerable, src rowSource,
	found map[string]bool, k, probe int) (db.Tuple, int, error) {

	gen := newTupleGen(k)
	var key []byte
	for i := 0; i < probe; i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, i, err
			}
		}
		mEnumProbes.Inc()
		idx := gen.next()
		tuple := make(db.Tuple, k)
		for j := range idx {
			tuple[j] = dom.Element(idx[j])
		}
		key = tuple.AppendKey(key[:0])
		if found[string(key)] {
			continue
		}
		ok, err := src.member(ctx, tuple)
		if err != nil {
			return nil, i + 1, err
		}
		if ok {
			return tuple, i + 1, nil
		}
	}
	return nil, probe, nil
}

// tupleGen yields a bijective enumeration of ℕ^k incrementally: tuples
// are ordered by maximum component (block m holds the tuples whose largest
// component is m), so every tuple has a finite index. Rather than
// recomputing the block decomposition for each index (quadratic in the
// probe count), the generator keeps the current block and code and
// advances in O(1) amortized per tuple: walking block m enumerates
// (m+1)^k base-(m+1) codes, which is also the total number of tuples
// yielded through that block.
type tupleGen struct {
	k int
	// n is the plain counter for k = 1, where the enumeration is identity.
	n int
	// m is the current block: tuples whose maximum component is exactly m.
	m int
	// digits is the current code in base m+1, most significant first.
	digits []int
	// maxCount tracks how many digits equal m, so "contains the maximum"
	// is an O(1) test instead of a scan.
	maxCount int
	started  bool
}

func newTupleGen(k int) *tupleGen {
	return &tupleGen{k: k, digits: make([]int, k)}
}

// next returns the next tuple in enumeration order. The returned slice is
// fresh and owned by the caller.
func (g *tupleGen) next() []int {
	if g.k == 1 {
		g.n++
		return []int{g.n - 1}
	}
	if !g.started {
		// Block m = 0 holds exactly the all-zero tuple.
		g.started = true
		g.maxCount = g.k
		return make([]int, g.k)
	}
	for {
		if !g.inc() {
			// Block exhausted: move to base m+2 and restart from all zeros
			// (which contains no m+1, so the loop skips forward to the
			// first code of the new block).
			g.m++
			for i := range g.digits {
				g.digits[i] = 0
			}
			g.maxCount = 0
			continue
		}
		if g.maxCount > 0 {
			out := make([]int, g.k)
			copy(out, g.digits)
			return out
		}
	}
}

// inc advances digits by one in base m+1, maintaining maxCount; it reports
// false on overflow (all digits were m).
func (g *tupleGen) inc() bool {
	i := g.k - 1
	for i >= 0 && g.digits[i] == g.m {
		g.digits[i] = 0
		g.maxCount--
		i--
	}
	if i < 0 {
		return false
	}
	g.digits[i]++
	if g.digits[i] == g.m {
		g.maxCount++
	}
	return true
}
