package autarith

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/presburger"
)

func lt(a, b logic.Term) *logic.Formula { return logic.Atom(presburger.PredLt, a, b) }
func num(n int64) logic.Term {
	if n < 0 {
		return logic.Const("-" + logic.Const("").Name + itoa(-n))
	}
	return logic.Const(itoa(n))
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}

// leqAtom builds Σ coefs[i]·vars[i] ≤ bound under a fresh budget.
func leqAtom(t *testing.T, vars []string, coefs []int64, bound int64) *DFA {
	t.Helper()
	d, err := newBudget(nil).linearAtom(linear{vars: vars, coefs: coefs}, bound, false)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// dvdAtom builds d | Σ coefs[i]·vars[i] + c under a fresh budget.
func dvdAtom(t *testing.T, vars []string, coefs []int64, c, d int64) *DFA {
	t.Helper()
	out, err := newBudget(nil).dvdAtom(linear{vars: vars, coefs: coefs}, c, d)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLeqAtomMembership(t *testing.T) {
	// x − y ≤ 2.
	d := leqAtom(t, []string{"x", "y"}, []int64{1, -1}, 2)
	for x := int64(0); x <= 8; x++ {
		for y := int64(0); y <= 8; y++ {
			got, err := d.Runs([]int64{x, y})
			if err != nil {
				t.Fatalf("Runs: %v", err)
			}
			if got != (x-y <= 2) {
				t.Errorf("x=%d y=%d: %v", x, y, got)
			}
		}
	}
}

func TestLeqAtomLargeBound(t *testing.T) {
	// x ≤ 100: residuals start far above the coefficient norm and must
	// converge without clamping errors.
	d := leqAtom(t, []string{"x"}, []int64{1}, 100)
	for x := int64(90); x <= 110; x++ {
		got, err := d.Runs([]int64{x})
		if err != nil {
			t.Fatal(err)
		}
		if got != (x <= 100) {
			t.Errorf("x=%d: %v", x, got)
		}
	}
}

func TestDvdAtomMembership(t *testing.T) {
	// 3 | 2x + y + 1.
	d := dvdAtom(t, []string{"x", "y"}, []int64{2, 1}, 1, 3)
	for x := int64(0); x <= 9; x++ {
		for y := int64(0); y <= 9; y++ {
			got, err := d.Runs([]int64{x, y})
			if err != nil {
				t.Fatal(err)
			}
			if got != ((2*x+y+1)%3 == 0) {
				t.Errorf("x=%d y=%d: %v", x, y, got)
			}
		}
	}
}

func TestComplementAndProduct(t *testing.T) {
	// ¬(x ≤ 3) ∧ (x ≤ 5) ⟺ x ∈ {4, 5}.
	le3 := leqAtom(t, []string{"x"}, []int64{1}, 3)
	le5 := leqAtom(t, []string{"x"}, []int64{1}, 5)
	d, err := newBudget(nil).aligned(complement(le3), le5, and)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x <= 8; x++ {
		got, err := d.Runs([]int64{x})
		if err != nil {
			t.Fatal(err)
		}
		if got != (x == 4 || x == 5) {
			t.Errorf("x=%d: %v", x, got)
		}
	}
}

func TestCylindrifyAlignment(t *testing.T) {
	// (x ≤ 2) ∧ (y ≤ 1) over merged tracks.
	dx := leqAtom(t, []string{"x"}, []int64{1}, 2)
	dy := leqAtom(t, []string{"y"}, []int64{1}, 1)
	d, err := newBudget(nil).aligned(dx, dy, and)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x <= 4; x++ {
		for y := int64(0); y <= 4; y++ {
			got, err := d.Runs([]int64{x, y})
			if err != nil {
				t.Fatal(err)
			}
			if got != (x <= 2 && y <= 1) {
				t.Errorf("x=%d y=%d: %v", x, y, got)
			}
		}
	}
}

func TestExistsProjection(t *testing.T) {
	// ∃y (x = 2y): the even numbers. Equality via the compiler.
	f := logic.Exists("y", logic.Eq(
		logic.Var("x"),
		logic.App(presburger.FuncMul, logic.Const("2"), logic.Var("y"))))
	d, err := Compile(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x <= 12; x++ {
		got, err := d.Runs([]int64{x})
		if err != nil {
			t.Fatal(err)
		}
		if got != (x%2 == 0) {
			t.Errorf("x=%d: %v", x, got)
		}
	}
}

func TestExistsNeedsPadding(t *testing.T) {
	// ∃y (x < y): always true over ℕ, but the witness y needs more bits
	// than x — exactly the case padding closure exists for.
	f := logic.Exists("y", lt(logic.Var("x"), logic.Var("y")))
	d, err := Compile(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	for x := int64(0); x <= 10; x++ {
		got, err := d.Runs([]int64{x})
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Errorf("x=%d: ∃y x<y must hold", x)
		}
	}
}

func TestDecideSentences(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	add := func(a, b logic.Term) logic.Term { return logic.App(presburger.FuncAdd, a, b) }
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		{logic.Exists("x", logic.Forall("y", logic.Not(lt(y, x)))), true},
		{logic.Exists("x", logic.Forall("y", logic.Not(lt(x, y)))), false},
		{logic.Forall("x", logic.Exists("y", lt(x, y))), true},
		{logic.Exists("x", logic.And(lt(num(0), x), lt(x, num(1)))), false},
		{logic.Exists("x", logic.Eq(add(x, x), num(4))), true},
		{logic.Exists("x", logic.Eq(add(x, x), num(5))), false},
		{logic.Forall("x", logic.Or(
			logic.Atom(presburger.PredDvd, num(2), x),
			logic.Atom(presburger.PredDvd, num(2), add(x, num(1))))), true},
		{logic.Forall("x", logic.Atom(presburger.PredDvd, num(2), x)), false},
		{logic.ExistsAll([]string{"x", "y"}, logic.And(
			logic.Eq(add(x, y), num(5)), lt(x, y))), true},
		{lt(num(2), num(3)), true},
		{logic.Eq(num(2), num(3)), false},
	}
	for _, c := range cases {
		got, err := Decide(context.Background(), c.f)
		if err != nil {
			t.Fatalf("Decide(%v): %v", c.f, err)
		}
		if got != c.want {
			t.Errorf("Decide(%v) = %v, want %v", c.f, got, c.want)
		}
	}
	if _, err := Decide(context.Background(), lt(x, num(1))); err == nil {
		t.Errorf("open formula accepted")
	}
}

// TestDifferentialAgainstCooper is the headline: two unrelated decision
// procedures for Presburger arithmetic agree on random sentences. Cooper's
// algorithm is worst-case super-exponential and its size guard may bail on
// a pathological instance (the automata engine decides those too — in
// microseconds, as TestAutomataHandleCooperBlowup shows); such instances
// are skipped here, and must stay rare.
func TestDifferentialAgainstCooper(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	cooper := presburger.Eliminator{MaxNodes: 200_000}
	skipped := 0
	for i := 0; i < 250; i++ {
		f := randSentence(rng)
		a, err := Decide(context.Background(), f)
		if err != nil {
			t.Fatalf("autarith: %v (%v)", err, f)
		}
		b, err := cooper.Decide(context.Background(), f)
		if err != nil {
			skipped++
			continue // Cooper resource guard; the automata verdict stands
		}
		if a != b {
			t.Fatalf("engines disagree on %v: automata=%v cooper=%v", f, a, b)
		}
	}
	if skipped > 25 {
		t.Fatalf("too many Cooper bailouts: %d of 250", skipped)
	}
	t.Logf("agreed on %d sentences, %d Cooper bailouts", 250-skipped, skipped)
}

// TestAutomataHandleCooperBlowup pins the instance that sent Cooper's
// algorithm into its super-exponential regime during development: the
// automata engine decides it instantly.
func TestAutomataHandleCooperBlowup(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	add := func(a, b logic.Term) logic.Term { return logic.App(presburger.FuncAdd, a, b) }
	mul := func(k int64, t logic.Term) logic.Term {
		return logic.App(presburger.FuncMul, logic.Const(itoa(k)), t)
	}
	f := logic.Forall("x", logic.Forall("y", logic.Implies(
		logic.Not(logic.Atom(presburger.PredDvd, num(2), add(mul(2, y), x))),
		logic.Or(
			logic.Atom(presburger.PredLe, add(mul(2, y), y), add(mul(3, x), add(x, num(5)))),
			logic.Atom(presburger.PredDvd, num(3), add(mul(1, y), add(y, num(4))))))))
	v, err := Decide(context.Background(), f)
	if err != nil {
		t.Fatalf("autarith: %v", err)
	}
	// Counterexample: x odd (so the premise holds for suitable y), y large,
	// 3y > 4x+5 and 2y+4 ≢ 0 mod 3 — e.g. x=1, y=4: dvd(2, 9) false,
	// 12 ≤ 9 false, dvd(3, 12) true… pick y=6: dvd(2,13) false,
	// 18 ≤ 9 false, dvd(3,16) false → whole sentence false.
	if v {
		t.Fatalf("sentence should be false")
	}
	// Cooper with a small guard bails out instead of hanging.
	if _, err := (presburger.Eliminator{MaxNodes: 50_000}).Decide(context.Background(), f); err == nil {
		t.Log("note: Cooper handled the pinned instance within the guard")
	}
}

func randSentence(rng *rand.Rand) *logic.Formula {
	vars := []string{"x", "y"}
	term := func() logic.Term {
		t := logic.App(presburger.FuncMul,
			logic.Const(itoa(int64(1+rng.Intn(3)))), logic.Var(vars[rng.Intn(2)]))
		if rng.Intn(2) == 0 {
			t = logic.App(presburger.FuncAdd, t, logic.Var(vars[rng.Intn(2)]))
		}
		return logic.App(presburger.FuncAdd, t, logic.Const(itoa(int64(rng.Intn(8)))))
	}
	atom := func() *logic.Formula {
		switch rng.Intn(4) {
		case 0:
			return lt(term(), term())
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
			return logic.And(rec(d-1), rec(d-1))
		case 3:
			return logic.Or(rec(d-1), rec(d-1))
		default:
			return logic.Implies(rec(d-1), rec(d-1))
		}
	}
	body := rec(2)
	for i := len(vars) - 1; i >= 0; i-- {
		if rng.Intn(2) == 0 {
			body = logic.Exists(vars[i], body)
		} else {
			body = logic.Forall(vars[i], body)
		}
	}
	return body
}

// TestCompileMembershipAgainstSemantics: compiled open formulas agree with
// direct arithmetic on sampled assignments.
func TestCompileMembershipAgainstSemantics(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	add := func(a, b logic.Term) logic.Term { return logic.App(presburger.FuncAdd, a, b) }
	f := logic.And(
		logic.Atom(presburger.PredLe, add(x, y), num(9)),
		logic.Atom(presburger.PredDvd, num(3), add(x, add(y, num(1)))))
	d, err := Compile(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	for xv := int64(0); xv <= 12; xv++ {
		for yv := int64(0); yv <= 12; yv++ {
			got, err := d.Runs([]int64{xv, yv})
			if err != nil {
				t.Fatal(err)
			}
			want := xv+yv <= 9 && (xv+yv+1)%3 == 0
			if got != want {
				t.Errorf("x=%d y=%d: %v, want %v", xv, yv, got, want)
			}
		}
	}
}

func TestRunsErrors(t *testing.T) {
	d := leqAtom(t, []string{"x"}, []int64{1}, 1)
	if _, err := d.Runs(nil); err == nil {
		t.Errorf("missing value accepted")
	}
	if _, err := d.Runs([]int64{-1}); err == nil {
		t.Errorf("negative value accepted")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []*logic.Formula{
		logic.Atom("P", logic.Var("x")),
		logic.Atom(presburger.PredDvd, logic.Var("x"), logic.Var("y")),
		logic.Eq(logic.App(presburger.FuncMul, logic.Var("x"), logic.Var("y")), logic.Const("1")),
	}
	for _, f := range bad {
		if _, err := Compile(context.Background(), f); err == nil {
			t.Errorf("Compile(%v) accepted", f)
		}
	}
}
