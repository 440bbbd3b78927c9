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
// For d | a·x + c the residuals are residues: in state (s, m) the tuples
// still acceptable are those whose remaining high bits x' meet
// a·x' ≡ s (mod m), starting from s = −c mod d, m = d. Reading β needs
// 2·a·x' ≡ s − a·β (mod m). While m is even that needs s − a·β even (an
// odd one enters a rejecting sink), and leaves a·x' ≡ (s − a·β)/2 modulo
// m/2; once m is odd, 2 is invertible and the successor is
// (s − a·β)·2⁻¹ mod m. A state accepts iff s = 0. The moduli run through
// d, d/2, … down to d's odd part, so there are at most 2d states and the
// sink.

// maxMagnitude bounds ‖a‖₁ and |b| of a linear atom, so that residual
// arithmetic (s − a·β over residuals within ±(‖a‖₁ + |b|)) cannot overflow
// int64.
const maxMagnitude = 1 << 60

// maxModulus bounds a divisibility modulus, so that a residue times 2⁻¹,
// both below the modulus, cannot overflow int64.
const maxModulus = 1 << 31

// linear is a linear atom's left-hand side over the tracks it constrains:
// Σ coefs[i]·vars[i], with vars sorted and every coefficient non-zero.
type linear struct {
	vars  []string
	coefs []int64
}

// dots returns a·β for every symbol β over the atom's tracks, in buf's
// storage.
func (l linear) dots(buf []int64) []int64 {
	out := zeroed(buf, 1<<len(l.vars))
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
	b.dots = l.dots(b.dots)
	dots := b.dots
	// dead is the rejecting sink of equalities; residuals stay within
	// ±2^61, so the key cannot collide with one.
	const dead = math.MinInt64
	accepts := func(s int64) bool {
		if eq {
			return s == 0
		}
		return s >= 0
	}
	b.resetIndex()
	state := func(s int64) (int, error) {
		i, slot := b.lookup(uint64(s), nil)
		if i >= 0 {
			return i, nil
		}
		i, err := bl.add(s != dead && accepts(s))
		if err != nil {
			return 0, err
		}
		b.insert(uint64(s), slot)
		return i, nil
	}
	start, err := state(bound)
	if err != nil {
		return nil, err
	}
	syms := len(dots)
	for i := 0; i < len(b.keys); i++ {
		s := int64(b.keys[i])
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
	b.dots = l.dots(b.dots)
	dots := b.dots
	for i, dot := range dots {
		dots[i] = mod(dot, d)
	}
	// A state (s, m) is keyed m<<32 | s; no modulus is 0, so the key 0 is
	// the sink's.
	const sink = 0
	b.resetIndex()
	state := func(key uint64) (int, error) {
		i, slot := b.lookup(key, nil)
		if i >= 0 {
			return i, nil
		}
		i, err := bl.add(key != sink && uint32(key) == 0)
		if err != nil {
			return 0, err
		}
		b.insert(key, slot)
		return i, nil
	}
	start, err := state(uint64(d)<<32 | uint64(mod(-c, d)))
	if err != nil {
		return nil, err
	}
	syms := len(dots)
	for i := 0; i < len(b.keys); i++ {
		key := b.keys[i]
		s, m := int64(uint32(key)), int64(key>>32)
		for sym, dot := range dots {
			next := uint64(sink)
			if key != sink {
				// m divides d, so a·β mod m is dot mod m.
				switch r := s - dot%m; {
				case m%2 == 1:
					next = uint64(m)<<32 | uint64(mod(mod(r, m)*((m+1)/2), m))
				case r%2 == 0:
					next = uint64(m/2)<<32 | uint64(mod(r/2, m/2))
				}
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

// mod returns x mod d in [0, d), for d > 0.
func mod(x, d int64) int64 { return (x%d + d) % d }

// fromLinear converts a presburger.LinearTerm to the constrained tracks
// and the constant; the coefficients are the scratch's, good until the
// next atom. Magnitudes the residual arithmetic cannot hold are refused
// with ErrTooLarge, leaving such formulas to Cooper's big-integer
// arithmetic.
func (b *budget) fromLinear(t presburger.LinearTerm) (linear, int64, error) {
	l := linear{vars: make([]string, 0, len(t.Coeffs)), coefs: b.coefs[:0]}
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
	b.coefs = l.coefs
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

// negate turns a·x into −a·x, in place.
func (l linear) negate() linear {
	for i, c := range l.coefs {
		l.coefs[i] = -c
	}
	return l
}
