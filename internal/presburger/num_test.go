package presburger

import (
	"math/big"
	"testing"
)

// TestNumAgainstBig checks Num's arithmetic against math/big at the edges
// of its int64 fast paths: ±2^31 (products; a product of two operands
// near 2^32 overflows an int64), ±2^62 (sums), ±2^63 and MinInt64 (past an
// int64), each with its neighbours.
func TestNumAgainstBig(t *testing.T) {
	var vals []*big.Int
	for _, s := range []string{"0", "1", "-1", "7", "-12"} {
		b, _ := new(big.Int).SetString(s, 10)
		vals = append(vals, b)
	}
	for _, exp := range []uint{31, 32, 62, 63} {
		p := new(big.Int).Lsh(big.NewInt(1), exp)
		for _, d := range []int64{-1, 0, 1} {
			v := new(big.Int).Add(p, big.NewInt(d))
			vals = append(vals, v, new(big.Int).Neg(v))
		}
	}
	num := func(b *big.Int) Num {
		n, ok := parseNum(b.String())
		if !ok {
			t.Fatalf("parseNum(%v) failed", b)
		}
		return n
	}
	check := func(op string, a, c *big.Int, got Num, want *big.Int) {
		t.Helper()
		if got.String() != want.String() {
			t.Errorf("%s(%v, %v) = %v, want %v", op, a, c, got, want)
		}
		if n, ok := got.Int64(); ok != want.IsInt64() || ok && n != want.Int64() {
			t.Errorf("%s(%v, %v): Int64() = %d, %v; want %v narrowed", op, a, c, n, ok, want)
		}
	}
	for _, a := range vals {
		na := num(a)
		check("Neg", a, nil, na.Neg(), new(big.Int).Neg(a))
		check("Abs", a, nil, na.Abs(), new(big.Int).Abs(a))
		if na.Sign() != a.Sign() {
			t.Errorf("Sign(%v) = %d", a, na.Sign())
		}
		for _, c := range vals {
			nc := num(c)
			check("Add", a, c, na.Add(nc), new(big.Int).Add(a, c))
			check("Mul", a, c, na.Mul(nc), new(big.Int).Mul(a, c))
			if na.Cmp(nc) != a.Cmp(c) {
				t.Errorf("Cmp(%v, %v) = %d", a, c, na.Cmp(nc))
			}
			g := new(big.Int).GCD(nil, nil, new(big.Int).Abs(a), new(big.Int).Abs(c))
			check("gcd", a, c, gcd(na, nc), g)
			if c.Sign() == 0 {
				continue
			}
			check("Quo", a, c, na.Quo(nc), new(big.Int).Quo(a, c))
			check("Mod", a, c, na.Mod(nc), new(big.Int).Mod(a, c))
			if a.Sign() == 0 {
				continue
			}
			l := new(big.Int).Mul(new(big.Int).Abs(a), new(big.Int).Abs(c))
			check("lcm", a, c, lcm(na, nc), l.Quo(l, g))
		}
	}
}

// TestParseNum: numerals parse with an optional sign, at any size; other
// text does not.
func TestParseNum(t *testing.T) {
	for _, s := range []string{"0", "-5", "+5", "9223372036854775807", "-9223372036854775808", "9223372036854775808", "123456789012345678901234567890"} {
		n, ok := parseNum(s)
		want, _ := new(big.Int).SetString(s, 10)
		if !ok || n.String() != want.String() {
			t.Errorf("parseNum(%q) = %v, %v", s, n, ok)
		}
	}
	for _, s := range []string{"", "-", "1e3", "0x10", "1_000", "abc"} {
		if _, ok := parseNum(s); ok {
			t.Errorf("parseNum(%q) accepted", s)
		}
	}
}
