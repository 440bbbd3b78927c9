// Package autarith is a second, independent decision procedure for
// Presburger arithmetic over ℕ: the classical automata-theoretic one
// (Büchi's method in its finite-word form). Numbers are encoded in binary,
// least-significant bit first, one synchronized track per variable; each
// atomic constraint compiles to a deterministic automaton, the connectives
// to boolean combinations, and quantifiers to projection (with padding
// closure) — truth of a sentence is reachability of an accepting state.
//
// Nothing here shares code with the Cooper eliminator in
// internal/presburger, which is the point: the two engines decide the same
// theory by unrelated algorithms, so their agreement on random sentences
// (TestDifferentialAgainstCooper here, the bench table's E15 rows at the
// root) is strong evidence for both.
//
// The automaton of a formula φ′(x̄) is also a finite representation of its
// whole answer, which is how the Presburger §1.1 enumeration
// (internal/query) uses it: membership is a walk over a candidate's bits,
// and "more rows?" asks the tuple count, whose infinity is a cycle check.
// Relative safety over ℕ (Theorem 2.5, internal/core) asks that cycle
// check once: the answer is finite iff the count is. Every construction is
// bounded (MaxCells) and cancellable, so a formula whose automaton is too
// large is refused and answered by Cooper instead.
package autarith

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/obs"
)

// Automata-engine metrics: construction volume and decisions.
var (
	mDFAStatesBuilt    = obs.NewCounter("autarith.dfa.states_built")
	mAutarithDecisions = obs.NewCounter("autarith.decide.calls")
)

// DFA is a deterministic automaton over the alphabet of bit vectors for a
// fixed ordered list of variable tracks. Symbol i encodes the bit vector
// whose bit j (for Vars[j]) is (i >> j) & 1.
//
// Automata in this package maintain the zero-stability invariant: reading
// the all-zeros symbol from an accepting state stays accepting, and from a
// rejecting state stays rejecting. Encodings of a tuple differ only by
// trailing zero padding, so zero-stability makes language complementation
// implement relation complementation.
type DFA struct {
	// Vars are the track names, in order.
	Vars []string
	// Trans is the transition table, one row of 2^len(Vars) successors per
	// state: Trans[s<<len(Vars) | symbol] is the successor of state s.
	Trans []int
	// Accept[s] reports whether state s is accepting.
	Accept []bool
	// Initial is the start state.
	Initial int
}

// symbols returns the alphabet size.
func (d *DFA) symbols() int { return 1 << len(d.Vars) }

// row returns state s's successors, indexed by symbol.
func (d *DFA) row(s int) []int {
	k := len(d.Vars)
	return d.Trans[s<<k : (s+1)<<k]
}

// NumStates returns the state count.
func (d *DFA) NumStates() int { return len(d.Accept) }

// Runs reports whether the automaton accepts the tuple vals, given in
// track order. Values must be non-negative. The walk reads the values'
// bits in place: vals is neither copied nor modified.
func (d *DFA) Runs(vals []int64) (bool, error) {
	if len(vals) != len(d.Vars) {
		return false, fmt.Errorf("autarith: %d values for %d tracks %v", len(vals), len(d.Vars), d.Vars)
	}
	var all uint64
	for i, v := range vals {
		if v < 0 {
			return false, fmt.Errorf("autarith: negative value for %q", d.Vars[i])
		}
		all |= uint64(v)
	}
	k := len(d.Vars)
	state := d.Initial
	// Trailing zeros change nothing by zero-stability, so the walk stops
	// after the highest set bit of any value, and the all-zero tuple reads
	// the empty word.
	for j := 0; j < bits.Len64(all); j++ {
		sym := 0
		for i, v := range vals {
			sym |= int(v>>j&1) << i
		}
		state = d.Trans[state<<k|sym]
	}
	return d.Accept[state], nil
}

// Count returns the number of tuples in the automaton's relation,
// saturating at math.MaxInt64, and whether that number is infinite.
//
// A tuple's shortest encoding is the empty word (the all-zero tuple) or a
// word ending in a non-zero symbol, and by zero-stability the tuple is in
// the relation iff that encoding is accepted. So the count is the initial
// state's verdict plus the number of paths from it that end with a
// non-zero symbol into an accepting state. Call a state live when such a
// path leaves from it; the count is infinite iff a cycle passes through
// live states reachable from the initial one.
func (d *DFA) Count() (n int64, infinite bool) {
	states, syms := d.NumStates(), d.symbols()
	// Predecessor lists, flat: pred[start[t]:start[t+1]] are the states
	// with a transition into t.
	start := make([]int32, states+1)
	for _, t := range d.Trans {
		start[t+1]++
	}
	for t := 0; t < states; t++ {
		start[t+1] += start[t]
	}
	pred := make([]int32, len(d.Trans))
	fill := append([]int32(nil), start[:states]...)
	for i, t := range d.Trans {
		pred[fill[t]] = int32(i / syms)
		fill[t]++
	}
	// live: backward closure of the states with a non-zero transition into
	// an accepting state. fill is reused as the work queue.
	live := make([]bool, states)
	queue := fill[:0]
	for s := 0; s < states; s++ {
		for _, t := range d.row(s)[1:] {
			if d.Accept[t] {
				live[s] = true
				queue = append(queue, int32(s))
				break
			}
		}
	}
	for len(queue) > 0 {
		t := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, s := range pred[start[t]:start[t+1]] {
			if !live[s] {
				live[s] = true
				queue = append(queue, s)
			}
		}
	}
	if d.Accept[d.Initial] {
		n = 1
	}
	if !live[d.Initial] {
		return n, false
	}
	// Depth-first over the live states reachable from the initial one:
	// a back edge closes a cycle, and otherwise paths[s] — the accepted
	// paths leaving s — sums over the successors in post-order.
	const (
		unseen = iota
		open
		done
	)
	color := make([]uint8, states)
	paths := make([]int64, states)
	type frame struct{ s, sym int }
	stack := []frame{{d.Initial, 0}}
	color[d.Initial] = open
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.sym == syms {
			color[top.s] = done
			stack = stack[:len(stack)-1]
			continue
		}
		s, t := top.s, d.Trans[top.s<<len(d.Vars)|top.sym]
		if live[t] {
			switch color[t] {
			case open:
				return math.MaxInt64, true
			case unseen:
				// Come back to this symbol once t is done.
				color[t] = open
				stack = append(stack, frame{t, 0})
				continue
			}
			paths[s] = satAdd(paths[s], paths[t])
		}
		if top.sym != 0 && d.Accept[t] {
			paths[s] = satAdd(paths[s], 1)
		}
		top.sym++
	}
	return satAdd(n, paths[d.Initial]), false
}

// satAdd adds two non-negative counts, saturating at math.MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// MaxCells bounds one construction: the transition cells (states ×
// 2^tracks) of every automaton it builds — atoms, cylindrifications,
// products and subset constructions, where each subset also counts its
// members — are summed, and the construction fails with ErrTooLarge past
// this cap. It plays the part of Cooper's presburger.DefaultMaxNodes: the
// automaton of a Presburger formula can be non-elementary in its size, and
// the cap turns that into a refusal the caller answers another way.
const MaxCells = 1 << 16

// maxTracks is the most tracks one state's row can have within the cap.
const maxTracks = 16 // log2(MaxCells)

// ErrTooLarge reports a construction refused by the MaxCells cap.
var ErrTooLarge = errors.New("autarith: automaton exceeds the size bound")

// budget meters one construction against MaxCells and polls its context
// (nil means never cancelled) as the cells accumulate.
type budget struct {
	ctx   context.Context
	cells int
}

// pollShift spaces the context polls: one per 2^pollShift cells built.
const pollShift = 8

// charge accounts for n more cells.
func (b *budget) charge(n int) error {
	before := b.cells
	b.cells += n
	if b.cells > MaxCells {
		return ErrTooLarge
	}
	if b.ctx != nil && before>>pollShift != b.cells>>pollShift {
		return b.ctx.Err()
	}
	return nil
}

// builder accumulates one automaton's states, charging each state's row
// to the construction's budget before allocating it.
type builder struct {
	b      *budget
	vars   []string
	trans  []int
	accept []bool
}

func (b *budget) newBuilder(vars []string) (*builder, error) {
	if len(vars) > maxTracks {
		return nil, ErrTooLarge
	}
	return &builder{b: b, vars: vars}, nil
}

// add appends a state whose transitions are all 0, to be filled in by
// the caller, and returns its index.
func (bl *builder) add(accepting bool) (int, error) {
	syms := 1 << len(bl.vars)
	if err := bl.b.charge(syms); err != nil {
		return 0, err
	}
	bl.trans = append(bl.trans, make([]int, syms)...)
	bl.accept = append(bl.accept, accepting)
	return len(bl.accept) - 1, nil
}

func (bl *builder) build(initial int) *DFA {
	mDFAStatesBuilt.Add(int64(len(bl.accept)))
	return &DFA{Vars: bl.vars, Trans: bl.trans, Accept: bl.accept, Initial: initial}
}

// MergeVars returns the sorted union of two track lists.
func MergeVars(a, b []string) []string {
	set := map[string]bool{}
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
