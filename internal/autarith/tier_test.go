package autarith

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/presburger"
)

// presburgerSyntax is the presburger domain's parser configuration.
var presburgerSyntax = parser.Options{Functions: map[string]bool{
	presburger.FuncAdd: true, presburger.FuncSub: true,
	presburger.FuncMul: true, presburger.FuncNeg: true,
}}

// parsePresburger parses a formula in the presburger domain's syntax.
func parsePresburger(t testing.TB, src string) *logic.Formula {
	t.Helper()
	f, err := parser.ParseWith(src, presburgerSyntax)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	return f
}

// hazards are the translations, over R = {1, 4, 9, 16}, of the two
// queries whose unbounded automata never finished: the first grows in the
// projection, the second in a product.
var hazards = []string{
	"exists z. ((z = 1 | z = 4 | z = 9 | z = 16) & dvd(997, add(x, z)))",
	"exists z. ((z = 1 | z = 4 | z = 9 | z = 16) & mul(1000003, x) = z)",
}

// oversized are formulas whose numbers the residue arithmetic cannot hold.
var oversized = []string{
	"le(add(mul(4611686018427387904, x), mul(4611686018427387904, y)), 4611686018427387904)",
	"dvd(9223372036854775808, x)",
}

func TestCompileRefusesHazards(t *testing.T) {
	// The refusal is bounded by the cap, not by the formula: well under
	// this even with the race detector on.
	const limit = 2 * time.Second
	for _, src := range append(append([]string(nil), hazards...), oversized...) {
		f := parsePresburger(t, src)
		start := time.Now()
		_, err := Compile(context.Background(), f)
		took := time.Since(start)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: want ErrTooLarge, got %v", src, err)
		}
		if took > limit {
			t.Errorf("%s: refusal took %v, over %v", src, took, limit)
		}
		t.Logf("%s: refused in %v", src, took)
	}
}

func TestCompileCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Compile(ctx, parsePresburger(t, hazards[0]))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCompileTracksAreFreeVars(t *testing.T) {
	// x = x constrains no track, yet the automaton has one: the relation
	// is all of ℕ, not the 0-ary truth.
	d, err := Compile(context.Background(), parsePresburger(t, "x = x & lt(y, 3)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Vars) != 2 || d.Vars[0] != "x" || d.Vars[1] != "y" {
		t.Fatalf("tracks %v, want [x y]", d.Vars)
	}
	if _, inf := d.Count(); !inf {
		t.Error("x unconstrained: the relation is infinite")
	}
}

func TestRunsLeavesValuesAlone(t *testing.T) {
	d := leqAtom(t, []string{"x", "y"}, []int64{1, 1}, 9)
	vals := []int64{6, 3}
	ok, err := d.Runs(vals)
	if err != nil || !ok {
		t.Fatalf("Runs(6, 3) = %v, %v", ok, err)
	}
	if vals[0] != 6 || vals[1] != 3 {
		t.Errorf("Runs modified its argument: %v", vals)
	}
	if _, err := d.Runs([]int64{1}); err == nil {
		t.Error("short tuple accepted")
	}
}

func TestCount(t *testing.T) {
	cases := []struct {
		src      string
		n        int64
		infinite bool
	}{
		{"lt(x, 5)", 5, false},
		{"lt(x, 5) & lt(y, 3)", 15, false},
		{"x = 0", 1, false},
		{"x = 1000000", 1, false},
		{"lt(x, 0)", 0, false},
		{"dvd(2, x) & lt(x, 10)", 5, false},
		{"exists y. (lt(x, y) & lt(y, 4))", 3, false},
		{"add(x, y) = 6", 7, false},
		{"lt(2, 3)", 1, false},
		{"lt(3, 2)", 0, false},
		{"x = x", 0, true},
		{"lt(5, x)", 0, true},
		{"dvd(3, x)", 0, true},
		{"lt(x, 4) & ~(y = 2)", 0, true},
		{"exists y. (lt(x, y) & dvd(5, y))", 0, true},
	}
	for _, c := range cases {
		d, err := Compile(context.Background(), parsePresburger(t, c.src))
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		n, inf := d.Count()
		if inf != c.infinite || (!inf && n != c.n) {
			t.Errorf("%s: Count = %d, %v; want %d, %v", c.src, n, inf, c.n, c.infinite)
		}
	}
}

// TestCountAgainstMembership checks Count on random open formulas against
// the automaton's own membership, which the semantic tests pin. Their
// constants and periods are small, so a finite answer lies below w, and
// an infinite one has rows with a component in [w, 2w).
func TestCountAgainstMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const w = 32
	infinite := 0
	for i := 0; i < 300; i++ {
		f := randOpenFormula2(rng)
		d, err := Compile(context.Background(), f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		n, inf := d.Count()
		low, high := int64(0), int64(0)
		vals := make([]int64, len(d.Vars))
		var walk func(j int, beyond bool)
		walk = func(j int, beyond bool) {
			if j == len(vals) {
				switch ok, _ := d.Runs(vals); {
				case ok && beyond:
					high++
				case ok:
					low++
				}
				return
			}
			for v := int64(0); v < 2*w; v++ {
				vals[j] = v
				walk(j+1, beyond || v >= w)
			}
		}
		walk(0, false)
		if inf != (high > 0) || (!inf && n != low) {
			t.Fatalf("%v: Count = %d, %v; %d rows below %d, %d beyond", f, n, inf, low, w, high)
		}
		if inf {
			infinite++
		}
	}
	if infinite < 50 || infinite > 250 {
		t.Fatalf("unbalanced draw: %d of 300 infinite", infinite)
	}
}

// randOpenFormula2 draws a formula over free x and y (either may vanish)
// with constants below 8, coefficients up to 3 and moduli up to 4.
func randOpenFormula2(rng *rand.Rand) *logic.Formula {
	vars := []string{"x", "y", "z"}
	term := func() logic.Term {
		t := logic.App(presburger.FuncMul,
			logic.Const(itoa(int64(1+rng.Intn(3)))), logic.Var(vars[rng.Intn(3)]))
		return logic.App(presburger.FuncAdd, t, logic.Const(itoa(int64(rng.Intn(8)))))
	}
	atom := func() *logic.Formula {
		switch rng.Intn(4) {
		case 0:
			return lt(term(), logic.Const(itoa(int64(rng.Intn(8)))))
		case 1:
			return logic.Eq(term(), term())
		case 2:
			return logic.Atom(presburger.PredLe, term(), term())
		default:
			return logic.Atom(presburger.PredDvd, logic.Const(itoa(int64(2+rng.Intn(3)))), term())
		}
	}
	var rec func(d int) *logic.Formula
	rec = func(d int) *logic.Formula {
		if d == 0 {
			return atom()
		}
		switch rng.Intn(5) {
		case 0:
			return atom()
		case 1:
			return logic.Not(rec(d - 1))
		case 2:
			return logic.Or(rec(d-1), rec(d-1))
		default:
			return logic.And(rec(d-1), rec(d-1))
		}
	}
	return logic.Exists("z", rec(2))
}

// FuzzCompile: for any formula the parser accepts, Compile returns an
// automaton within the cap, ErrTooLarge, or an error — never a panic.
func FuzzCompile(f *testing.F) {
	for _, src := range append(append([]string(nil), hazards...), oversized...) {
		f.Add(src)
	}
	f.Add("forall x. exists y. (lt(x, y) & dvd(3, add(y, 1)))")
	f.Add("exists y. ((y = 6 | y = 2) & lt(x, y)) & lt(x, 1073741824)")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := parser.ParseWith(src, presburgerSyntax)
		if err != nil {
			return
		}
		d, err := Compile(context.Background(), g)
		if err != nil {
			return
		}
		if cells := d.NumStates() << len(d.Vars); cells > MaxCells {
			t.Fatalf("%s: automaton of %d cells passed the %d cap", src, cells, MaxCells)
		}
		if len(d.Trans) != d.NumStates()<<len(d.Vars) {
			t.Fatalf("%s: %d transitions for %d states", src, len(d.Trans), d.NumStates())
		}
		d.Count()
	})
}
