package presburger

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/big"
	"strconv"
)

// Num is an exact integer. It holds an int64 and moves to math/big only
// when a checked operation could overflow: a sum is computed in int64
// when both operands are under 2^62 in magnitude, a product when both are
// under 2^31, and anything else in math/big and narrowed back. Nums are
// immutable values; the zero value is 0.
type Num struct {
	n int64
	b *big.Int // the value when it does not fit an int64, else nil
}

const (
	addLimit = 1 << 62
	mulLimit = 1 << 31
)

// NumOf returns the Num n.
func NumOf(n int64) Num { return Num{n: n} }

func numFromBig(b *big.Int) Num {
	if b.IsInt64() {
		return Num{n: b.Int64()}
	}
	return Num{b: b}
}

// parseNum reads a decimal numeral with an optional sign.
func parseNum(s string) (Num, bool) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Num{n: n}, true
	}
	b, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return Num{}, false
	}
	return numFromBig(b), true
}

// big returns a as a big.Int, which callers must not modify: a Num shares
// its big.Int with the Nums copied from it.
func (a Num) big() *big.Int {
	if a.b != nil {
		return a.b
	}
	return big.NewInt(a.n)
}

func (a Num) under(limit int64) bool { return a.b == nil && -limit < a.n && a.n < limit }

// Int64 returns the value and whether it fits an int64.
func (a Num) Int64() (int64, bool) { return a.n, a.b == nil }

// Sign returns -1, 0 or +1.
func (a Num) Sign() int {
	if a.b != nil {
		return a.b.Sign()
	}
	return cmp.Compare(a.n, 0)
}

// Cmp returns -1, 0 or +1 as a is less than, equal to or greater than c.
func (a Num) Cmp(c Num) int {
	if a.b == nil && c.b == nil {
		return cmp.Compare(a.n, c.n)
	}
	return a.big().Cmp(c.big())
}

// Add returns a + c.
func (a Num) Add(c Num) Num {
	if a.under(addLimit) && c.under(addLimit) {
		return Num{n: a.n + c.n}
	}
	return numFromBig(new(big.Int).Add(a.big(), c.big()))
}

// Mul returns a · c.
func (a Num) Mul(c Num) Num {
	if a.under(mulLimit) && c.under(mulLimit) {
		return Num{n: a.n * c.n}
	}
	return numFromBig(new(big.Int).Mul(a.big(), c.big()))
}

// Neg returns −a.
func (a Num) Neg() Num {
	if a.b == nil && a.n != math.MinInt64 {
		return Num{n: -a.n}
	}
	return numFromBig(new(big.Int).Neg(a.big()))
}

// Abs returns |a|.
func (a Num) Abs() Num {
	if a.Sign() < 0 {
		return a.Neg()
	}
	return a
}

// Quo returns a / c truncated toward zero; c must be nonzero.
func (a Num) Quo(c Num) Num {
	if a.b == nil && c.b == nil && !(a.n == math.MinInt64 && c.n == -1) {
		return Num{n: a.n / c.n}
	}
	return numFromBig(new(big.Int).Quo(a.big(), c.big()))
}

// Mod returns the Euclidean remainder of a by c, in [0, |c|); c must be
// nonzero.
func (a Num) Mod(c Num) Num {
	if a.b == nil && c.under(math.MaxInt64) {
		r := a.n % c.n
		if r < 0 {
			r += abs64(c.n)
		}
		return Num{n: r}
	}
	return numFromBig(new(big.Int).Mod(a.big(), c.big()))
}

// appendKey appends an encoding of a that no other value shares: a tag
// and the int64 as a varint, or, past an int64, a tag and the hex digits
// up to a zero byte.
func (a Num) appendKey(buf []byte) []byte {
	if a.b == nil {
		return binary.AppendVarint(append(buf, 0), a.n)
	}
	return append(a.b.Append(append(buf, 1), 16), 0)
}

// String renders a in decimal.
func (a Num) String() string {
	if a.b != nil {
		return a.b.String()
	}
	return strconv.FormatInt(a.n, 10)
}

// gcd returns the greatest common divisor of |a| and |c|.
func gcd(a, c Num) Num {
	if a.under(math.MaxInt64) && c.under(math.MaxInt64) {
		x, y := abs64(a.n), abs64(c.n)
		for y != 0 {
			x, y = y, x%y
		}
		return Num{n: x}
	}
	return numFromBig(new(big.Int).GCD(nil, nil, new(big.Int).Abs(a.big()), new(big.Int).Abs(c.big())))
}

// lcm returns the least common multiple of |a| and |c|, both nonzero.
func lcm(a, c Num) Num {
	a, c = a.Abs(), c.Abs()
	return a.Quo(gcd(a, c)).Mul(c)
}

func abs64(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}
