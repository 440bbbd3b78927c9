package autarith

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/presburger"
)

// Atom automata, LSB-first over ℕ.
//
// For a·x ≤ b the automaton's states are the residual bounds: in state s,
// the tuples still acceptable are those with a·x ≤ s. Reading the bit
// vector β uses a·x = a·β + 2·a·x' (x' the remaining high bits), so
//
//	a·β + 2·a·x' ≤ s  ⟺  a·x' ≤ ⌊(s − a·β)/2⌋,
//
// giving the successor state ⌊(s − a·β)/2⌋. A state accepts iff s ≥ 0 (the
// all-zero continuation satisfies 0 ≤ s). The reachable bounds stay within
// [−‖a‖₁, max(b, 0)], so the automaton is finite.
//
// For a·x = b the residuals are exact: a·β + 2·a·x' = s needs s − a·β
// even, and then a·x' = (s − a·β)/2; an odd residual enters a rejecting
// sink. A state accepts iff s = 0.
//
// For d | a·x + c the state tracks (r, p): r the partial value mod d and p
// the weight 2^j mod d of the next bit position. Reading β updates
// r ← (r + p·(a·β)) mod d, p ← 2p mod d; acceptance is r ≡ 0.

// maxMagnitude bounds ‖a‖₁ and |b| of a linear atom, so that residual
// arithmetic (s − a·β over residuals within ±(‖a‖₁ + |b|)) cannot overflow
// int64.
const maxMagnitude = 1 << 60

// maxModulus bounds a divisibility modulus, so that p·(a·β mod d) < d²
// cannot overflow int64.
const maxModulus = 1 << 31

// linear is a linear atom's left-hand side over the tracks it constrains:
// Σ coefs[i]·vars[i], with vars sorted and every coefficient non-zero.
type linear struct {
	vars  []string
	coefs []int64
}

// dots returns a·β for every symbol β over the atom's tracks.
func (l linear) dots() []int64 {
	out := make([]int64, 1<<len(l.vars))
	for sym := 1; sym < len(out); sym++ {
		low := sym & -sym
		out[sym] = out[sym^low] + l.coefs[bits.TrailingZeros(uint(low))]
	}
	return out
}

// linearAtom builds the automaton of a·x ≤ bound, or a·x = bound when eq
// is set.
func (b *budget) linearAtom(l linear, bound int64, eq bool) (*DFA, error) {
	bl, err := b.newBuilder(l.vars)
	if err != nil {
		return nil, err
	}
	dots := l.dots()
	// dead is the rejecting sink of equalities; residuals stay within
	// ±2^61, so the key cannot collide with one.
	const dead = math.MinInt64
	accepts := func(s int64) bool {
		if eq {
			return s == 0
		}
		return s >= 0
	}
	index := map[int64]int{}
	var residual []int64
	state := func(s int64) (int, error) {
		if i, ok := index[s]; ok {
			return i, nil
		}
		i, err := bl.add(s != dead && accepts(s))
		if err != nil {
			return 0, err
		}
		index[s] = i
		residual = append(residual, s)
		return i, nil
	}
	start, err := state(bound)
	if err != nil {
		return nil, err
	}
	syms := len(dots)
	for i := 0; i < len(residual); i++ {
		s := residual[i]
		for sym, dot := range dots {
			// No clamping is needed for finiteness: with N = ‖a‖₁, any
			// residual above N+1 strictly decreases and any residual below
			// −N−1 strictly increases under s ↦ ⌊(s−a·β)/2⌋, so the
			// reachable set is contained in the interval spanned by the
			// initial bound and ±(N+1).
			next := int64(dead)
			switch {
			case s == dead:
			case !eq:
				next = floorDiv(s-dot, 2)
			case (s-dot)%2 == 0:
				next = (s - dot) / 2
			}
			ni, err := state(next)
			if err != nil {
				return nil, err
			}
			bl.trans[i*syms+sym] = ni
		}
	}
	return bl.build(start), nil
}

func floorDiv(a, d int64) int64 {
	q := a / d
	if a%d != 0 && (a < 0) != (d < 0) {
		q--
	}
	return q
}

// dvdAtom builds the automaton of d | (a·x + c), for 0 < d ≤ maxModulus.
func (b *budget) dvdAtom(l linear, c, d int64) (*DFA, error) {
	bl, err := b.newBuilder(l.vars)
	if err != nil {
		return nil, err
	}
	mod := func(x int64) int64 { return ((x % d) + d) % d }
	dots := l.dots()
	for i, dot := range dots {
		dots[i] = mod(dot)
	}
	type rp struct{ r, p int64 }
	index := map[rp]int{}
	var pending []rp
	state := func(k rp) (int, error) {
		if i, ok := index[k]; ok {
			return i, nil
		}
		i, err := bl.add(k.r == 0)
		if err != nil {
			return 0, err
		}
		index[k] = i
		pending = append(pending, k)
		return i, nil
	}
	start, err := state(rp{mod(c), mod(1)})
	if err != nil {
		return nil, err
	}
	syms := len(dots)
	for i := 0; i < len(pending); i++ {
		cur := pending[i]
		np := mod(2 * cur.p)
		for sym, dot := range dots {
			ni, err := state(rp{mod(cur.r + cur.p*dot), np})
			if err != nil {
				return nil, err
			}
			bl.trans[i*syms+sym] = ni
		}
	}
	return bl.build(start), nil
}

// fromLinear converts a presburger.LinearTerm to the constrained tracks
// and the constant. Magnitudes the residual arithmetic cannot hold are
// refused with ErrTooLarge, leaving such formulas to Cooper's big-integer
// arithmetic.
func fromLinear(t presburger.LinearTerm) (linear, int64, error) {
	var l linear
	norm := int64(0)
	for _, c := range t.Coeffs {
		k, ok := c.K.Int64()
		if !ok || k < -maxMagnitude || k > maxMagnitude {
			return linear{}, 0, fmt.Errorf("%w: coefficient %v", ErrTooLarge, c.K)
		}
		l.vars = append(l.vars, c.Var)
		l.coefs = append(l.coefs, k)
		if norm += abs(k); norm > maxMagnitude {
			return linear{}, 0, fmt.Errorf("%w: coefficients of %v", ErrTooLarge, t)
		}
	}
	c, ok := t.Const.Int64()
	if !ok || c < -maxMagnitude || c > maxMagnitude {
		return linear{}, 0, fmt.Errorf("%w: constant %v", ErrTooLarge, t.Const)
	}
	return l, c, nil
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// negate returns −a·x.
func (l linear) negate() linear {
	out := linear{vars: l.vars, coefs: make([]int64, len(l.coefs))}
	for i, c := range l.coefs {
		out.coefs[i] = -c
	}
	return out
}
