package presburger

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/domain"
	"repro/internal/logic"
)

// dval abbreviates domain.Value in table-driven interpretation tests.
type dval = domain.Value

func lt(a, b logic.Term) *logic.Formula { return logic.Atom(PredLt, a, b) }
func num(n int64) logic.Term            { return logic.Const(strconv.FormatInt(n, 10)) }
func add(a, b logic.Term) logic.Term    { return logic.App(FuncAdd, a, b) }
func mul(k int64, t logic.Term) logic.Term {
	return logic.App(FuncMul, num(k), t)
}

func decideNat(t *testing.T, f *logic.Formula) bool {
	t.Helper()
	v, err := Eliminator{}.Decide(context.Background(), f)
	if err != nil {
		t.Fatalf("Decide(%v): %v", f, err)
	}
	return v
}

func decideInt(t *testing.T, f *logic.Formula) bool {
	t.Helper()
	v, err := Eliminator{Integers: true}.Decide(context.Background(), f)
	if err != nil {
		t.Fatalf("Decide(%v): %v", f, err)
	}
	return v
}

func TestLinearTermOps(t *testing.T) {
	x := FromVar("x")
	y := FromVar("y")
	s := x.Scale(NumOf(2)).Add(y).AddInt(3)
	if got := s.String(); got != "2*x + y + 3" {
		t.Errorf("String = %q", got)
	}
	if s.Coeff("x") != NumOf(2) || s.Coeff("z").Sign() != 0 {
		t.Errorf("Coeff wrong")
	}
	d := s.Sub(s)
	if !d.IsConst() || d.Const.Sign() != 0 {
		t.Errorf("s - s should be 0, got %v", d)
	}
	// Substitution: (2x + y + 3)[x := y + 1] = 3y + 5.
	u := s.Subst("x", y.AddInt(1))
	want := y.Scale(NumOf(3)).AddInt(5)
	if !u.Equal(want) {
		t.Errorf("Subst = %v, want %v", u, want)
	}
	// Eval.
	env := map[string]Num{"x": NumOf(10), "y": NumOf(1)}
	v, err := s.Eval(env)
	if err != nil || v != NumOf(24) {
		t.Errorf("Eval = %v, %v", v, err)
	}
	if _, err := s.Eval(map[string]Num{}); err == nil {
		t.Errorf("unbound eval should fail")
	}
}

func TestParseLinear(t *testing.T) {
	tm := add(mul(3, logic.Var("x")), logic.App(FuncSub, logic.Var("y"), num(4)))
	lin, err := ParseLinear(tm)
	if err != nil {
		t.Fatalf("ParseLinear: %v", err)
	}
	want := FromVar("x").Scale(NumOf(3)).Add(FromVar("y")).AddInt(-4)
	if !lin.Equal(want) {
		t.Errorf("got %v, want %v", lin, want)
	}
	// Nonlinear products are rejected.
	if _, err := ParseLinear(logic.App(FuncMul, logic.Var("x"), logic.Var("y"))); err == nil {
		t.Errorf("nonlinear product accepted")
	}
	if _, err := ParseLinear(logic.Const("abc")); err == nil {
		t.Errorf("non-numeral accepted")
	}
	if _, err := ParseLinear(logic.App("f", logic.Var("x"))); err == nil {
		t.Errorf("unknown function accepted")
	}
	// Negative numerals are fine (internal ℤ representation).
	lin, err = ParseLinear(num(-7))
	if err != nil || lin.Const != NumOf(-7) {
		t.Errorf("negative numeral: %v %v", lin, err)
	}
}

func TestRenderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vars := []string{"x", "y", "z"}
	for i := 0; i < 200; i++ {
		var lin LinearTerm
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				lin = lin.Add(FromVar(v).Scale(NumOf(int64(rng.Intn(9) - 4))))
			}
		}
		lin.Const = NumOf(int64(rng.Intn(21) - 10))
		back, err := ParseLinear(Render(lin))
		if err != nil {
			t.Fatalf("round trip of %v: %v", lin, err)
		}
		if !back.Equal(lin) {
			t.Errorf("round trip %v -> %v", lin, back)
		}
	}
}

func TestDecideNatBasics(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	cases := []struct {
		f    *logic.Formula
		want bool
	}{
		// ℕ has a least element.
		{logic.Exists("x", logic.Forall("y", logic.Not(lt(y, x)))), true},
		// …but no greatest.
		{logic.Exists("x", logic.Forall("y", logic.Not(lt(x, y)))), false},
		{logic.Forall("x", logic.Exists("y", lt(x, y))), true},
		// Discreteness: nothing strictly between n and n+1.
		{logic.Exists("x", logic.And(lt(num(0), x), lt(x, num(1)))), false},
		{logic.Exists("x", logic.And(lt(num(0), x), lt(x, num(2)))), true},
		// Simple arithmetic.
		{logic.Exists("x", logic.Eq(add(x, x), num(4))), true},
		{logic.Exists("x", logic.Eq(add(x, x), num(5))), false},
		// Even or odd.
		{logic.Forall("x", logic.Or(
			logic.Atom(PredDvd, num(2), x),
			logic.Atom(PredDvd, num(2), add(x, num(1))))), true},
		// Every number is even: false.
		{logic.Forall("x", logic.Atom(PredDvd, num(2), x)), false},
		// 3x = 5 has no solution; 3x = 6 does.
		{logic.Exists("x", logic.Eq(mul(3, x), num(5))), false},
		{logic.Exists("x", logic.Eq(mul(3, x), num(6))), true},
		// Linear system: x + y = 5 ∧ x < y.
		{logic.ExistsAll([]string{"x", "y"}, logic.And(
			logic.Eq(add(x, y), num(5)), lt(x, y))), true},
		// Chinese-remainder-flavored: x ≡ 1 (mod 2) ∧ x ≡ 2 (mod 3).
		{logic.Exists("x", logic.And(
			logic.Atom(PredDvd, num(2), add(x, num(1))),
			logic.Atom(PredDvd, num(3), add(x, num(1))))), true},
		// Ground sentences.
		{lt(num(2), num(3)), true},
		{logic.Eq(num(2), num(3)), false},
		{logic.Atom(PredLe, num(3), num(3)), true},
		{logic.Atom(PredGe, num(2), num(3)), false},
		{logic.Atom(PredGt, num(4), num(3)), true},
	}
	for _, c := range cases {
		if got := decideNat(t, c.f); got != c.want {
			t.Errorf("Decide_ℕ(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestDecideIntegersDiffer(t *testing.T) {
	x, y := logic.Var("x"), logic.Var("y")
	// ℤ has no least element; ℕ does.
	leastElement := logic.Exists("x", logic.Forall("y", logic.Not(lt(y, x))))
	if !decideNat(t, leastElement) {
		t.Errorf("ℕ should have a least element")
	}
	if decideInt(t, leastElement) {
		t.Errorf("ℤ should not have a least element")
	}
	// x + y = 0 with x > 0 is solvable in ℤ, not ℕ.
	f := logic.ExistsAll([]string{"x", "y"},
		logic.And(lt(num(0), x), logic.Eq(add(x, y), num(0))))
	if decideNat(t, f) {
		t.Errorf("not solvable in ℕ")
	}
	if !decideInt(t, f) {
		t.Errorf("solvable in ℤ")
	}
}

func TestEliminateQuantifierFree(t *testing.T) {
	e := Eliminator{}
	f := logic.Exists("x", logic.And(
		lt(logic.Var("y"), logic.Var("x")),
		lt(logic.Var("x"), add(logic.Var("y"), num(5)))))
	g, err := e.Eliminate(context.Background(), f)
	if err != nil {
		t.Fatalf("Eliminate: %v", err)
	}
	if !g.QuantifierFree() {
		t.Fatalf("quantifier left: %v", g)
	}
	if g.HasFreeVar("x") {
		t.Fatalf("eliminated variable still free: %v", g)
	}
	// y < x < y+5 has a natural solution for every natural y (x = y+1).
	for _, y := range []int64{0, 1, 7} {
		sentence := logic.Subst(g, "y", num(y))
		if !decideNat(t, sentence) {
			t.Errorf("y=%d: eliminated formula false, want true", y)
		}
	}
}

// TestCooperLeavesInputAlone: Cooper's output shares nodes and term
// slices with its input, so an elimination, and a further pass over its
// output, must not write into the input.
func TestCooperLeavesInputAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := Eliminator{}
	for i := 0; i < 200; i++ {
		g, err := e.canonicalize(logic.NNF(randPresburgerBody(rng, 2)))
		if err != nil {
			t.Fatal(err)
		}
		before, _ := e.render(g)
		out, err := e.cooper("x", g)
		if err != nil {
			continue
		}
		if r, _ := e.render(out.subst("y", FromConst(NumOf(3)))); r.HasFreeVar("y") {
			t.Fatalf("y left after substituting it: %v", r)
		}
		if after, _ := e.render(g); after.String() != before.String() {
			t.Fatalf("cooper changed its input:\n before %v\n after  %v", before, after)
		}
	}
}

// TestCooperAgainstBruteForce cross-validates elimination of one quantifier
// against brute-force search over a bounded range. The formulas are built so
// that any existential witness, if one exists at all, lies in [0, 60]:
// coefficients, constants, and moduli are tiny.
func TestCooperAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	e := Eliminator{}
	for iter := 0; iter < 400; iter++ {
		body := randPresburgerBody(rng, 2)
		yVal := int64(rng.Intn(8))
		grounded := logic.Subst(body, "y", num(yVal))

		// Brute force over x ∈ [0, 60].
		found := false
		for xv := int64(0); xv <= 60 && !found; xv++ {
			sentence := logic.Subst(grounded, "x", num(xv))
			v, err := e.Decide(context.Background(), sentence)
			if err != nil {
				t.Fatalf("ground Decide: %v (%v)", err, sentence)
			}
			found = v
		}

		got, err := e.Decide(context.Background(), logic.Exists("x", grounded))
		if err != nil {
			t.Fatalf("Decide(∃x %v): %v", grounded, err)
		}
		if found && !got {
			t.Fatalf("witness exists for %v (y=%d) but Cooper says false", body, yVal)
		}
		if !found && got {
			// The witness may be beyond 60 only if the formula has an
			// unbounded direction; with our generator all atoms bound x by
			// |constants| ≤ 10 and moduli ≤ 4, so lcm ≤ 12 and boundary
			// shifts ≤ 10+12: re-search a wider range to be sure.
			wider := false
			for xv := int64(0); xv <= 400 && !wider; xv++ {
				sentence := logic.Subst(grounded, "x", num(xv))
				v, err := e.Decide(context.Background(), sentence)
				if err != nil {
					t.Fatalf("ground Decide: %v", err)
				}
				wider = v
			}
			if !wider {
				t.Fatalf("Cooper says true but no witness ≤ 400 for %v (y=%d)", body, yVal)
			}
		}
	}
}

// randPresburgerBody generates a quantifier-free formula over x and y with
// small coefficients.
func randPresburgerBody(rng *rand.Rand, depth int) *logic.Formula {
	x, y := logic.Var("x"), logic.Var("y")
	randTerm := func() logic.Term {
		t := mul(int64(1+rng.Intn(3)), x)
		if rng.Intn(2) == 0 {
			t = add(t, mul(int64(rng.Intn(3)), y))
		}
		return add(t, num(int64(rng.Intn(21)-10)))
	}
	atom := func() *logic.Formula {
		a, b := randTerm(), randTerm()
		switch rng.Intn(4) {
		case 0:
			return lt(a, b)
		case 1:
			return logic.Eq(a, b)
		case 2:
			return logic.Atom(PredLe, a, b)
		default:
			return logic.Atom(PredDvd, num(int64(2+rng.Intn(3))), a)
		}
	}
	if depth == 0 {
		return atom()
	}
	switch rng.Intn(5) {
	case 0:
		return atom()
	case 1:
		return logic.Not(randPresburgerBody(rng, depth-1))
	case 2:
		return logic.And(randPresburgerBody(rng, depth-1), randPresburgerBody(rng, depth-1))
	case 3:
		return logic.Or(randPresburgerBody(rng, depth-1), randPresburgerBody(rng, depth-1))
	default:
		return logic.Implies(randPresburgerBody(rng, depth-1), randPresburgerBody(rng, depth-1))
	}
}

func TestDecideConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	e := Eliminator{}
	for i := 0; i < 100; i++ {
		body := randPresburgerBody(rng, 2)
		var f *logic.Formula
		if rng.Intn(2) == 0 {
			f = logic.ForallAll([]string{"x", "y"}, body)
		} else {
			f = logic.Forall("x", logic.Exists("y", body))
		}
		v, err := e.Decide(context.Background(), f)
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		nv, err := e.Decide(context.Background(), logic.Not(f))
		if err != nil {
			t.Fatalf("Decide(¬): %v", err)
		}
		if v == nv {
			t.Errorf("Decide(%v) = Decide(negation) = %v", f, v)
		}
	}
}

func TestEquivalent(t *testing.T) {
	x := logic.Var("x")
	e := Eliminator{}
	// x < 3 ⟺ x ≤ 2 over ℕ.
	a := lt(x, num(3))
	b := logic.Atom(PredLe, x, num(2))
	eq, err := e.Equivalent(context.Background(), a, b)
	if err != nil || !eq {
		t.Errorf("x<3 ≡ x≤2 should hold: %v %v", eq, err)
	}
	// x < 3 ≢ x < 4.
	eq, err = e.Equivalent(context.Background(), a, lt(x, num(4)))
	if err != nil || eq {
		t.Errorf("x<3 ≢ x<4: %v %v", eq, err)
	}
}

func TestDomainInterp(t *testing.T) {
	d := Domain{}
	if d.Name() != "presburger" {
		t.Errorf("name")
	}
	v, err := d.ConstValue("42")
	if err != nil || v.Key() != "42" {
		t.Errorf("ConstValue: %v %v", v, err)
	}
	if _, err := d.ConstValue("-1"); err == nil {
		t.Errorf("negative constant accepted in ℕ domain")
	}
	if _, err := d.ConstValue("abc"); err == nil {
		t.Errorf("non-numeral accepted")
	}
	args := []struct {
		fn   string
		a, b int64
		want string
	}{
		{FuncAdd, 2, 3, "5"},
		{FuncSub, 5, 3, "2"},
		{FuncSub, 3, 5, "0"}, // monus
		{FuncMul, 4, 3, "12"},
	}
	for _, c := range args {
		got, err := d.Func(c.fn, []dval{domain.Int(c.a), domain.Int(c.b)})
		if err != nil || got.Key() != c.want {
			t.Errorf("%s(%d,%d) = %v, %v; want %s", c.fn, c.a, c.b, got, err, c.want)
		}
	}
	preds := []struct {
		p    string
		a, b int64
		want bool
	}{
		{PredLt, 1, 2, true},
		{PredLt, 2, 2, false},
		{PredLe, 2, 2, true},
		{PredGt, 3, 2, true},
		{PredGe, 2, 3, false},
		{PredDvd, 3, 9, true},
		{PredDvd, 3, 10, false},
	}
	for _, c := range preds {
		got, err := d.Pred(c.p, []dval{domain.Int(c.a), domain.Int(c.b)})
		if err != nil || got != c.want {
			t.Errorf("%s(%d,%d) = %v, %v; want %v", c.p, c.a, c.b, got, err, c.want)
		}
	}
	if d.Element(7).Key() != "7" {
		t.Errorf("Element wrong")
	}
}

// TestDedupBoundsKeyed: past keyedBounds terms, the keyed deduplication
// keeps exactly the terms the pairwise comparison keeps, in the same
// order, on sets that repeat terms with small and big coefficients and
// with variables whose names run together.
func TestDedupBoundsKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	big, _ := parseNum("-92233720368547758080")
	nums := []Num{NumOf(0), NumOf(1), NumOf(-1), NumOf(1 << 40), big}
	pool := make([]LinearTerm, 60)
	for i := range pool {
		var cs []Coeff
		for _, v := range []string{"x", "xy", "y"} {
			if k := nums[rng.Intn(len(nums))]; k.Sign() != 0 {
				cs = append(cs, Coeff{Var: v, K: k})
			}
		}
		pool[i] = LinearTerm{Coeffs: cs, Const: nums[rng.Intn(len(nums))]}
	}
	for trial := 0; trial < 50; trial++ {
		bset := make([]LinearTerm, keyedBounds+1+rng.Intn(100))
		for i := range bset {
			bset[i] = pool[rng.Intn(len(pool))]
		}
		got, err := Eliminator{}.dedupBounds(bset)
		if err != nil {
			t.Fatal(err)
		}
		var want []LinearTerm
		for _, r := range bset {
			if !slices.ContainsFunc(want, r.Equal) {
				want = append(want, r)
			}
		}
		if !slices.EqualFunc(got, want, LinearTerm.Equal) {
			t.Fatalf("keyed dedup kept %v, pairwise %v", got, want)
		}
	}
}
