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
//
// One Compile or Decide builds every automaton of its construction — the
// atoms, cylindrifications, products and subset constructions — in one
// scratch taken from a sync.Pool: their transition rows and acceptance
// bits are appended to one arena, the subsets of a projection are sorted
// runs in another, and the index of states by key and the work queue are
// reused from one automaton to the next. Compile copies the automaton it
// returns out of the scratch before putting the scratch back, so no DFA a
// caller holds aliases pooled memory. The scratch needs no bound of its
// own: MaxCells caps the cells and subset members one construction may
// charge, and with them what a pooled scratch holds. Count takes its work
// slices from the same pool.
package autarith

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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
	// A hand-built automaton past the cap gets its own slices, which the
	// pool must not keep.
	var w *scratch
	if len(d.Trans) <= MaxCells {
		w = scratches.Get().(*scratch)
		defer scratches.Put(w)
	} else {
		w = new(scratch)
	}
	// Predecessor lists, flat: pred[start[t]:start[t+1]] are the states
	// with a transition into t.
	w.start = zeroed(w.start, states+1)
	start := w.start
	for _, t := range d.Trans {
		start[t+1]++
	}
	for t := 0; t < states; t++ {
		start[t+1] += start[t]
	}
	w.pred = zeroed(w.pred, len(d.Trans))
	pred := w.pred
	w.fill = append(w.fill[:0], start[:states]...)
	fill := w.fill
	for i, t := range d.Trans {
		pred[fill[t]] = int32(i / syms)
		fill[t]++
	}
	// live: backward closure of the states with a non-zero transition into
	// an accepting state. fill is reused as the work queue.
	w.live = zeroed(w.live, states)
	live := w.live
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
	w.color = zeroed(w.color, states)
	w.paths = zeroed(w.paths, states)
	color, paths := w.color, w.paths
	stack := append(w.frames[:0], frame{d.Initial, 0})
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
				w.frames = stack[:0]
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
	w.frames = stack
	return satAdd(n, paths[d.Initial]), false
}

// frame is a step of Count's depth-first walk: a state and the next
// symbol to follow from it.
type frame struct{ s, sym int }

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
// (nil means never cancelled) as the cells accumulate. Every automaton
// the construction builds lives in its scratch.
type budget struct {
	ctx   context.Context
	cells int
	*scratch
}

// newBudget starts a construction on a scratch from the pool; release
// puts the scratch back, after which no automaton the construction built
// may be read.
func newBudget(ctx context.Context) *budget {
	s := scratches.Get().(*scratch)
	s.trans, s.accept = s.trans[:0], s.accept[:0]
	return &budget{ctx: ctx, scratch: s}
}

func (b *budget) release() {
	scratches.Put(b.scratch)
	b.scratch = nil
}

// scratches holds the scratch of constructions and counts that have
// ended.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// scratch is the storage of one construction, reused by the next. Its
// cells and subset members are charged to the construction's budget, so
// MaxCells bounds what it holds; the index has under four slots per
// state of the largest automaton it indexed, and 64 at least.
type scratch struct {
	// trans and accept are the arena: every automaton's rows and
	// acceptance bits, one automaton after another.
	trans  []int
	accept []bool
	// The index of the automaton being built: keys[i] is state i's key,
	// and slots is an open-addressing table of the states by key (see
	// lookup).
	keys  []uint64
	slots []uint64
	epoch uint32
	// The subsets of a projection: subset i holds the sorted states
	// members[runs[i]:runs[i+1]], and its key is their hash.
	members, runs []int32
	// stamp[s] == gen marks state s as already in the subset being built.
	stamp []int
	gen   int
	// ints, flags and dots are a construction's per-symbol or per-state
	// work: cylindrify's symbol map, the padding closure's verdicts and
	// walk, an atom's a·β per symbol.
	ints  []int
	flags []uint8
	dots  []int64
	coefs []int64
	// Count's work.
	start, pred, fill []int32
	live              []bool
	color             []uint8
	paths             []int64
	frames            []frame
}

// resetIndex empties the index for the next automaton. A slot holds
// epoch<<32 | state+1 and is empty unless its epoch is the index's, so a
// new epoch empties every slot at once: reusing the index costs nothing
// however large an earlier automaton grew it.
func (s *scratch) resetIndex() {
	s.keys = s.keys[:0]
	if s.epoch++; s.epoch == 0 || s.slots == nil {
		s.slots = zeroed(s.slots, max(len(s.slots), 64))
		s.epoch = 1
	}
}

// lookup finds the state whose key is key and for which same, unless nil,
// holds. Without one it returns −1 and the slot insert takes.
func (s *scratch) lookup(key uint64, same func(state int) bool) (state, slot int) {
	mask := len(s.slots) - 1
	for i := s.home(key); ; i = (i + 1) & mask {
		v := s.slots[i]
		if uint32(v>>32) != s.epoch {
			return -1, i
		}
		if st := int(uint32(v)) - 1; s.keys[st] == key && (same == nil || same(st)) {
			return st, i
		}
	}
}

// insert adds the next state, keyed key, at the slot a failed lookup
// returned, and keeps the table at most half full.
func (s *scratch) insert(key uint64, slot int) {
	s.keys = append(s.keys, key)
	s.slots[slot] = uint64(s.epoch)<<32 | uint64(len(s.keys))
	if 2*len(s.keys) <= len(s.slots) {
		return
	}
	s.slots = make([]uint64, 2*len(s.slots))
	mask := len(s.slots) - 1
	for st, k := range s.keys {
		i := s.home(k)
		for uint32(s.slots[i]>>32) == s.epoch {
			i = (i + 1) & mask
		}
		s.slots[i] = uint64(s.epoch)<<32 | uint64(st+1)
	}
}

// home is where key's probe sequence starts: the top bits of a
// multiplicative hash.
func (s *scratch) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> (64 - bits.Len(uint(len(s.slots)-1))))
}

// zeroed returns buf resized to n zero elements, reusing its storage when
// it is large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// extend appends n zero elements to an arena slice, which grows
// geometrically but to at most MaxCells elements: the budget charges
// every state at least one cell before it is appended, so no
// construction needs more.
func extend[T any](arena []T, n int) []T {
	if need := len(arena) + n; need > cap(arena) {
		grown := make([]T, len(arena), max(min(2*cap(arena)+256, MaxCells), need))
		copy(grown, arena)
		arena = grown
	}
	return append(arena, make([]T, n)...)
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

// builder appends one automaton's states to the arena, charging each
// state's row to the construction's budget before appending it.
type builder struct {
	b    *budget
	vars []string
	// cell and state are where the automaton starts in the arena; trans
	// and accept are its part, resliced as states are added.
	cell, state int
	trans       []int
	accept      []bool
}

func (b *budget) newBuilder(vars []string) (builder, error) {
	if len(vars) > maxTracks {
		return builder{}, ErrTooLarge
	}
	return builder{b: b, vars: vars, cell: len(b.trans), state: len(b.accept)}, nil
}

// add appends a state whose transitions are all 0, to be filled in by
// the caller, and returns its index.
func (bl *builder) add(accepting bool) (int, error) {
	syms := 1 << len(bl.vars)
	b := bl.b
	if err := b.charge(syms); err != nil {
		return 0, err
	}
	b.trans = extend(b.trans, syms)
	b.accept = extend(b.accept, 1)
	b.accept[len(b.accept)-1] = accepting
	bl.trans, bl.accept = b.trans[bl.cell:], b.accept[bl.state:]
	return len(bl.accept) - 1, nil
}

// build returns the automaton, whose table and acceptance alias the
// arena.
func (bl *builder) build(initial int) *DFA {
	mDFAStatesBuilt.Add(int64(len(bl.accept)))
	return &DFA{Vars: bl.vars, Trans: bl.trans[:len(bl.trans):len(bl.trans)],
		Accept: bl.accept[:len(bl.accept):len(bl.accept)], Initial: initial}
}

// clone copies an automaton out of the arena.
func (d *DFA) clone() *DFA {
	return &DFA{Vars: d.Vars, Trans: slices.Clone(d.Trans), Accept: slices.Clone(d.Accept), Initial: d.Initial}
}

// MergeVars returns the sorted union of two track lists.
func MergeVars(a, b []string) []string {
	out := append(append(make([]string, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}
