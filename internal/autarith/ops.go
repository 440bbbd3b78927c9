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
// rejected), language complement is relation complement. Each automaton a
// construction builds has one consumer, the construction of its parent
// formula, so d is flipped in place and returned.
func complement(d *DFA) *DFA {
	for i, a := range d.Accept {
		d.Accept[i] = !a
	}
	return d
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
	b.ints = zeroed(b.ints, 1<<len(vars))
	oldSym := b.ints
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
	b.resetIndex()
	state := func(p, q int) (int, error) {
		key := uint64(p)<<32 | uint64(q)
		i, slot := b.lookup(key, nil)
		if i >= 0 {
			return i, nil
		}
		i, err := bl.add(combine(x.Accept[p], y.Accept[q]))
		if err != nil {
			return 0, err
		}
		b.insert(key, slot)
		return i, nil
	}
	init, err := state(x.Initial, y.Initial)
	if err != nil {
		return nil, err
	}
	syms := 1 << k
	for i := 0; i < len(b.keys); i++ {
		p, q := int(b.keys[i]>>32), int(uint32(b.keys[i]))
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

	// Each subset of d's states is a sorted run of the members arena,
	// found through the index by its hash. A candidate subset is built at
	// the arena's end and kept there only if it is new.
	b.resetIndex()
	b.members, b.runs = b.members[:0], append(b.runs[:0], 0)
	intern := func(start int) (int, error) {
		run := b.members[start:]
		slices.Sort(run)
		h := hashRun(run)
		i, slot := b.lookup(h, func(j int) bool {
			return slices.Equal(b.members[b.runs[j]:b.runs[j+1]], run)
		})
		if i >= 0 {
			b.members = b.members[:start]
			return i, nil
		}
		// A new subset is charged its members too, which bounds the
		// memory the subsets take along with the table.
		if err := b.charge(len(run)); err != nil {
			return 0, err
		}
		i, err := bl.add(false) // acceptance is set by the padding closure
		if err != nil {
			return 0, err
		}
		b.insert(h, slot)
		b.runs = append(b.runs, int32(len(b.members)))
		return i, nil
	}
	b.members = append(b.members, int32(d.Initial))
	init, err := intern(0)
	if err != nil {
		return nil, err
	}
	// stamp[s] == gen marks s as already in the subset being built; the
	// stamps of earlier constructions are all below gen.
	if n := d.NumStates(); cap(b.stamp) < n {
		b.stamp = make([]int, n)
	} else {
		b.stamp = b.stamp[:n]
	}
	stamp := b.stamp
	syms := 1 << len(rest)
	low := 1<<track - 1
	for i := 0; i < len(b.runs)-1; i++ {
		for sym := 0; sym < syms; sym++ {
			// Insert a 0 or a 1 bit for the projected track.
			s0 := sym&low | (sym&^low)<<1
			s1 := s0 | 1<<track
			b.gen++
			start := len(b.members)
			for j := b.runs[i]; j < b.runs[i+1]; j++ {
				s := int(b.members[j])
				for _, t := range [2]int{d.Trans[s<<k|s0], d.Trans[s<<k|s1]} {
					if stamp[t] != b.gen {
						stamp[t] = b.gen
						b.members = append(b.members, int32(t))
					}
				}
			}
			ni, err := intern(start)
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
	sets := len(b.runs) - 1
	b.flags = zeroed(b.flags, sets)
	verdict := b.flags
	for i := range verdict {
		for _, m := range b.members[b.runs[i]:b.runs[i+1]] {
			if d.Accept[m] {
				verdict[i] = yes
				break
			}
		}
	}
	path := b.ints[:0]
	for i := range verdict {
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
	b.ints = path[:0]
	for i, v := range verdict {
		bl.accept[i] = v == yes
	}
	return bl.build(init), nil
}

// hashRun hashes a subset's sorted members (FNV-1a over their words).
func hashRun(run []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, m := range run {
		h = (h ^ uint64(uint32(m))) * 1099511628211
	}
	return h
}

// forall is ¬∃¬.
func (b *budget) forall(d *DFA, v string) (*DFA, error) {
	inner, err := b.exists(complement(d), v)
	if err != nil {
		return nil, err
	}
	return complement(inner), nil
}
