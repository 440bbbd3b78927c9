package autarith

import (
	"fmt"
	"testing"
)

// dvdAtomWeights builds d | a·x + c as the atom once was built, without
// the cap: a state (r, p) is the value read so far mod d and the weight
// 2^j mod d of the next bit, so there are up to d·ord_d(2) states. Reading
// β updates r ← (r + p·(a·β)) mod d and p ← 2p mod d, and a state accepts
// iff r = 0. It is the oracle of the residual atom.
func dvdAtomWeights(l linear, c, d int64) *DFA {
	dots := l.dots(nil)
	for i, dot := range dots {
		dots[i] = mod(dot, d)
	}
	type rp struct{ r, p int64 }
	out := &DFA{Vars: l.vars}
	index := make([]int, d*d) // (r, p) → state + 1
	var pending []rp
	state := func(k rp) int {
		if i := index[k.r*d+k.p]; i > 0 {
			return i - 1
		}
		pending = append(pending, k)
		index[k.r*d+k.p] = len(pending)
		out.Accept = append(out.Accept, k.r == 0)
		out.Trans = append(out.Trans, make([]int, len(dots))...)
		return len(pending) - 1
	}
	out.Initial = state(rp{mod(c, d), mod(1, d)})
	for i := 0; i < len(pending); i++ {
		cur := pending[i]
		np := mod(2*cur.p, d)
		for sym, dot := range dots {
			out.Trans[i*len(dots)+sym] = state(rp{mod(cur.r+cur.p*dot, d), np})
		}
	}
	return out
}

// TestDvdAtomAgainstWeights: for every modulus up to 256, on one track and
// on two, the residual atom and the (residue, weight) atom minimize to
// the same automaton, and the residual one has at most 2d states and the
// sink.
func TestDvdAtomAgainstWeights(t *testing.T) {
	atoms := []struct {
		l linear
		c int64
	}{
		{linear{vars: []string{"x"}, coefs: []int64{3}}, 1},
		{linear{vars: []string{"x", "y"}, coefs: []int64{2, -3}}, -5},
	}
	for d := int64(1); d <= 256; d++ {
		for _, a := range atoms {
			name := fmt.Sprintf("%d | %v·%v + %d", d, a.l.coefs, a.l.vars, a.c)
			got, err := newBudget(nil).dvdAtom(a.l, a.c, d)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if n := int64(got.NumStates()); n > 2*d+1 {
				t.Errorf("%s: %d states, over 2d+1", name, n)
			}
			if want := dvdAtomWeights(a.l, a.c, d); !Isomorphic(Minimize(got), Minimize(want)) {
				t.Fatalf("%s: the residual atom (%d states) and the weight atom (%d) differ",
					name, got.NumStates(), want.NumStates())
			}
		}
	}
}
