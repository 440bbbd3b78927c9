package autarith

import (
	"fmt"
	"slices"
)

// The automaton constructions. Each one that builds states is a method of
// the construction's budget, so every intermediate automaton is charged
// against MaxCells and the context is polled as it grows.

// complement flips acceptance. Because the package maintains
// zero-stability (every encoding of a tuple is accepted or every one
// rejected), language complement is relation complement. The transition
// table is shared, not copied.
func complement(d *DFA) *DFA {
	accept := make([]bool, len(d.Accept))
	for i, a := range d.Accept {
		accept[i] = !a
	}
	return &DFA{Vars: d.Vars, Trans: d.Trans, Accept: accept, Initial: d.Initial}
}

// cylindrify extends the automaton to a superset of tracks: new tracks are
// unconstrained (transitions ignore their bits).
func (b *budget) cylindrify(d *DFA, vars []string) (*DFA, error) {
	if slices.Equal(d.Vars, vars) {
		return d, nil
	}
	bl, err := b.newBuilder(vars)
	if err != nil {
		return nil, err
	}
	// oldSym[sym] is the symbol over d's tracks that sym projects to.
	oldSym := make([]int, 1<<len(vars))
	for i, v := range d.Vars {
		p := slices.Index(vars, v)
		if p < 0 {
			return nil, fmt.Errorf("autarith: cylindrification drops track %q", v)
		}
		for sym := range oldSym {
			oldSym[sym] |= (sym >> p & 1) << i
		}
	}
	syms := len(oldSym)
	for s := 0; s < d.NumStates(); s++ {
		if _, err := bl.add(d.Accept[s]); err != nil {
			return nil, err
		}
		row := d.row(s)
		for sym, old := range oldSym {
			bl.trans[s*syms+sym] = row[old]
		}
	}
	return bl.build(d.Initial), nil
}

// product combines two automata over the same track list with a boolean
// connective on acceptance.
func (b *budget) product(x, y *DFA, combine func(bool, bool) bool) (*DFA, error) {
	if !slices.Equal(x.Vars, y.Vars) {
		return nil, fmt.Errorf("autarith: product of mismatched tracks %v vs %v", x.Vars, y.Vars)
	}
	bl, err := b.newBuilder(x.Vars)
	if err != nil {
		return nil, err
	}
	k := len(x.Vars)
	index := map[uint64]int{}
	var pairs []uint64
	state := func(p, q int) (int, error) {
		key := uint64(p)<<32 | uint64(q)
		if i, ok := index[key]; ok {
			return i, nil
		}
		i, err := bl.add(combine(x.Accept[p], y.Accept[q]))
		if err != nil {
			return 0, err
		}
		index[key] = i
		pairs = append(pairs, key)
		return i, nil
	}
	init, err := state(x.Initial, y.Initial)
	if err != nil {
		return nil, err
	}
	syms := 1 << k
	for i := 0; i < len(pairs); i++ {
		p, q := int(pairs[i]>>32), int(uint32(pairs[i]))
		for sym := 0; sym < syms; sym++ {
			ni, err := state(x.Trans[p<<k|sym], y.Trans[q<<k|sym])
			if err != nil {
				return nil, err
			}
			bl.trans[i*syms+sym] = ni
		}
	}
	return bl.build(init), nil
}

func and(x, y bool) bool { return x && y }
func or(x, y bool) bool  { return x || y }
func iff(x, y bool) bool { return x == y }

// aligned combines two relations with a connective, cylindrifying both to
// the union of their tracks first.
func (b *budget) aligned(x, y *DFA, combine func(bool, bool) bool) (*DFA, error) {
	vars := x.Vars
	if !slices.Equal(x.Vars, y.Vars) {
		vars = MergeVars(x.Vars, y.Vars)
	}
	cx, err := b.cylindrify(x, vars)
	if err != nil {
		return nil, err
	}
	cy, err := b.cylindrify(y, vars)
	if err != nil {
		return nil, err
	}
	return b.product(cx, cy, combine)
}

// exists projects a track away: the variable's bits become
// nondeterministic guesses, the NFA is determinized by subset
// construction, and acceptance is padding-closed — a state set accepts if
// it can reach an accepting set by reading only all-zero symbols, because
// the witness value may need more significant bits than the remaining
// tracks show.
func (b *budget) exists(d *DFA, v string) (*DFA, error) {
	track := slices.Index(d.Vars, v)
	if track < 0 {
		// The variable is not a track: ∃v is vacuous over a nonempty
		// domain.
		return d, nil
	}
	rest := slices.Delete(slices.Clone(d.Vars), track, track+1)
	bl, err := b.newBuilder(rest)
	if err != nil {
		return nil, err
	}
	k := len(d.Vars)

	// Each subset of d's states is kept sorted and encoded as its members'
	// little-endian uint32 bytes; that string is both the subset's index
	// key and its storage.
	index := map[string]int{}
	var sets []string
	var key []byte
	intern := func(members []int32) (int, error) {
		slices.Sort(members)
		key = key[:0]
		for _, m := range members {
			key = append(key, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
		}
		if i, ok := index[string(key)]; ok {
			return i, nil
		}
		// A new subset is charged its members too, which bounds the
		// memory the subsets take along with the table.
		if err := b.charge(len(members)); err != nil {
			return 0, err
		}
		i, err := bl.add(false) // acceptance is set by the padding closure
		if err != nil {
			return 0, err
		}
		set := string(key)
		index[set] = i
		sets = append(sets, set)
		return i, nil
	}
	init, err := intern([]int32{int32(d.Initial)})
	if err != nil {
		return nil, err
	}
	// stamp[s] == gen marks s as already in the subset being built.
	stamp := make([]int, d.NumStates())
	gen := 0
	var members []int32
	syms := 1 << len(rest)
	low := 1<<track - 1
	for i := 0; i < len(sets); i++ {
		set := sets[i]
		for sym := 0; sym < syms; sym++ {
			// Insert a 0 or a 1 bit for the projected track.
			s0 := sym&low | (sym&^low)<<1
			s1 := s0 | 1<<track
			gen++
			members = members[:0]
			for j := 0; j < len(set); j += 4 {
				s := member(set, j)
				for _, t := range [2]int{d.Trans[s<<k|s0], d.Trans[s<<k|s1]} {
					if stamp[t] != gen {
						stamp[t] = gen
						members = append(members, int32(t))
					}
				}
			}
			ni, err := intern(members)
			if err != nil {
				return nil, err
			}
			bl.trans[i*syms+sym] = ni
		}
	}

	// Padding closure: a subset accepts iff the chain of its all-zero
	// successors reaches a subset holding an accepting state of d. Each
	// chain is walked once; a chain that closes on itself without such a
	// subset rejects.
	const (
		unknown = iota
		yes
		no
		walking
	)
	verdict := make([]uint8, len(sets))
	for i, set := range sets {
		for j := 0; j < len(set); j += 4 {
			if d.Accept[member(set, j)] {
				verdict[i] = yes
				break
			}
		}
	}
	var path []int
	for i := range sets {
		s := i
		path = path[:0]
		for verdict[s] == unknown {
			verdict[s] = walking
			path = append(path, s)
			s = bl.trans[s*syms]
		}
		v := verdict[s]
		if v == walking {
			v = no
		}
		for _, p := range path {
			verdict[p] = v
		}
	}
	for i, v := range verdict {
		bl.accept[i] = v == yes
	}
	return bl.build(init), nil
}

// member decodes the state at byte offset j of an encoded subset.
func member(set string, j int) int {
	return int(uint32(set[j]) | uint32(set[j+1])<<8 | uint32(set[j+2])<<16 | uint32(set[j+3])<<24)
}

// forall is ¬∃¬.
func (b *budget) forall(d *DFA, v string) (*DFA, error) {
	inner, err := b.exists(complement(d), v)
	if err != nil {
		return nil, err
	}
	return complement(inner), nil
}
