package query

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/presburger"
)

// TestTupleGenMatchesOracle checks the incremental generator against
// tupleIndices, the from-scratch enumeration it replaced, across the index
// prefix the probe budget actually visits.
func TestTupleGenMatchesOracle(t *testing.T) {
	for k := 1; k <= 3; k++ {
		gen := newTupleGen(k)
		n := 3000
		if k == 1 {
			n = 5000
		}
		for i := 0; i < n; i++ {
			got := gen.next()
			want, err := tupleIndices(k, i)
			if err != nil {
				t.Fatalf("k=%d i=%d: %v", k, i, err)
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d i=%d: length %d vs %d", k, i, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("k=%d i=%d: generator %v, oracle %v", k, i, got, want)
				}
			}
		}
	}
}

// TestPowOverflowChecked pins the overflow-checked arithmetic at its
// boundaries: results that fit an int are exact, results that wrap return
// errEnumerationWidth instead of a silently negative value.
func TestPowOverflowChecked(t *testing.T) {
	ok := []struct{ b, e, want int }{
		{0, 0, 1}, {0, 5, 0}, {1, 63, 1}, {2, 62, 1 << 62},
		{3, 3, 27}, {10, 18, 1_000_000_000_000_000_000},
	}
	for _, c := range ok {
		got, err := pow(c.b, c.e)
		if err != nil || got != c.want {
			t.Errorf("pow(%d, %d) = %d, %v; want %d", c.b, c.e, got, err, c.want)
		}
	}
	over := []struct{ b, e int }{
		{2, 63}, {2, 64}, {3, 41}, {10, 19}, {1 << 16, 4}, {1 << 32, 2},
	}
	for _, c := range over {
		if got, err := pow(c.b, c.e); err == nil {
			t.Errorf("pow(%d, %d) = %d, want errEnumerationWidth", c.b, c.e, got)
		} else if !errors.Is(err, errEnumerationWidth) {
			t.Errorf("pow(%d, %d): error %v, want errEnumerationWidth", c.b, c.e, err)
		}
	}
}

// TestTupleIndicesWidthError pins the regression the unchecked arithmetic
// allowed: a tuple wide enough that (m+1)^k leaves int must surface the
// explicit width error, not skip blocks or panic "out of range". With
// k = 64, block m = 1 already needs 2^64 − 1 codes.
func TestTupleIndicesWidthError(t *testing.T) {
	// Index 0 is the all-zero tuple and never needs the block product.
	if got, err := tupleIndices(64, 0); err != nil || len(got) != 64 {
		t.Fatalf("tupleIndices(64, 0) = %v, %v", got, err)
	}
	// Index 1 forces the m = 1 block size (2^64 − 1^64): overflow.
	if _, err := tupleIndices(64, 1); !errors.Is(err, errEnumerationWidth) {
		t.Fatalf("tupleIndices(64, 1): error %v, want errEnumerationWidth", err)
	}
	// Narrower boundary: k = 2 stays exact deep into the enumeration.
	if got, err := tupleIndices(2, 3000); err != nil || len(got) != 2 {
		t.Fatalf("tupleIndices(2, 3000) = %v, %v", got, err)
	}
}

// TestTupleGenFreshSlices pins that next() hands out independent slices —
// the enumeration loop stores components into tuples that outlive the call.
func TestTupleGenFreshSlices(t *testing.T) {
	gen := newTupleGen(2)
	a := gen.next()
	b := gen.next()
	a[0], a[1] = -1, -1
	if b[0] == -1 || b[1] == -1 {
		t.Fatalf("next() aliases earlier results: %v", b)
	}
}

// TestEnumerationProbeBudgetExhausted forces the probe cap to bite: every
// answer lies beyond the candidates a 5-probe scan reaches, so the
// enumeration must stop with zero rows and Complete = false.
func TestEnumerationProbeBudgetExhausted(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{}))
	// φ(x): 10 < x — satisfiable (the existential keeps succeeding) but the
	// first witness is index 11, out of reach for Probe: 5.
	f := logic.Atom(presburger.PredLt, logic.Const("10"), logic.Var("x"))
	ans, err := EnumerationAnswerSinkCtx(context.Background(), presburger.Domain{}, presburger.Decider(), st, f,
		EnumerationBudget{Rows: 10, Probe: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Complete {
		t.Errorf("probe-capped run reported complete")
	}
	if ans.Rows.Len() != 0 {
		t.Errorf("probe cap 5 cannot reach x > 10, yet got %d rows", ans.Rows.Len())
	}
}

// TestEnumerationRowBudgetExhausted caps rows below the (infinite) answer:
// the run must fill exactly the cap and report incomplete.
func TestEnumerationRowBudgetExhausted(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{}))
	// φ(x): 0 ≤ x, true of every natural — infinitely many rows.
	f := logic.Atom(presburger.PredLe, logic.Const("0"), logic.Var("x"))
	ans, err := EnumerationAnswerSinkCtx(context.Background(), presburger.Domain{}, presburger.Decider(), st, f,
		EnumerationBudget{Rows: 4, Probe: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Complete {
		t.Errorf("row-capped run reported complete")
	}
	if ans.Rows.Len() != 4 {
		t.Errorf("row cap 4, got %d rows", ans.Rows.Len())
	}
	for i := 0; i < 4; i++ {
		if !ans.Rows.Has(db.Tuple{domain.Int(int64(i))}) {
			t.Errorf("row cap should keep the first 4 naturals; missing %d", i)
		}
	}
}

// errEnumerationWidth reports that tupleIndices' arithmetic would leave
// the int range: the block decomposition of ℕ^k needs (m+1)^k, which wraps
// for wide tuples (large k) or deep indexes (large m).
var errEnumerationWidth = errors.New("query: enumeration width exceeds int range")

// tupleIndices is tupleGen's enumeration of ℕ^k computed from scratch for
// one index: it recomputes the block decomposition on every call, which
// makes it the independent oracle the generator is tested against. All
// arithmetic is overflow-checked: an index whose block decomposition
// leaves int returns errEnumerationWidth.
func tupleIndices(k, n int) ([]int, error) {
	if k == 1 {
		return []int{n}, nil
	}
	// Tuples with max component exactly m: (m+1)^k − m^k of them. Find the
	// block, then the offset within it.
	m := 0
	block := 1 // (m+1)^k − m^k with m = 0
	rem := n
	for rem >= block {
		rem -= block
		m++
		hi, err := pow(m+1, k)
		if err != nil {
			return nil, err
		}
		lo, err := pow(m, k)
		if err != nil {
			return nil, err
		}
		block = hi - lo
	}
	// Enumerate the block: all tuples over [0..m] containing at least one m,
	// indexed by counting in base m+1 and skipping those without an m.
	count := -1
	total, err := pow(m+1, k)
	if err != nil {
		return nil, err
	}
	for code := 0; code < total; code++ {
		t := decode(code, k, m+1)
		hasMax := false
		for _, x := range t {
			if x == m {
				hasMax = true
				break
			}
		}
		if !hasMax {
			continue
		}
		count++
		if count == rem {
			return t, nil
		}
	}
	// Unreachable when the checked arithmetic holds: rem < block == the
	// number of max-containing codes below total.
	return nil, fmt.Errorf("query: tuple index %d not found in block m=%d k=%d", n, m, k)
}

// pow is overflow-checked integer exponentiation: b^e, or
// errEnumerationWidth when the product leaves the int range.
func pow(b, e int) (int, error) {
	out := 1
	for i := 0; i < e; i++ {
		next := out * b
		if b != 0 && (next/b != out || next < 0) {
			return 0, errEnumerationWidth
		}
		out = next
	}
	return out, nil
}

func decode(code, k, base int) []int {
	out := make([]int, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = code % base
		code /= base
	}
	return out
}
