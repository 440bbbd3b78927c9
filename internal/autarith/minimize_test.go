package autarith

// Formula equivalence by minimize-and-compare, independent of Cooper's
// ∀x̄ (φ ↔ ψ) sentence: a test oracle for both engines, with no production
// caller.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/presburger"
)

// Minimize returns the canonical minimal automaton of the same relation:
// unreachable states dropped, then Moore's partition refinement. Two
// formulas define the same relation iff their compiled automata minimize to
// isomorphic DFAs, which Equivalent exploits as a decision procedure for
// formula equivalence independent of Cooper's.
func Minimize(d *DFA) *DFA {
	// Reachable restriction.
	reach := []int{d.Initial}
	seen := map[int]bool{d.Initial: true}
	for i := 0; i < len(reach); i++ {
		for _, t := range d.row(reach[i]) {
			if !seen[t] {
				seen[t] = true
				reach = append(reach, t)
			}
		}
	}
	renum := make([]int, d.NumStates())
	for i, s := range reach {
		renum[s] = i
	}

	// Moore refinement: start from the accept/reject split. A state's
	// signature is its class and its successors' classes; classes are
	// renumbered in order of their signatures' first appearance.
	class := make([]int, len(reach))
	for i, s := range reach {
		if d.Accept[s] {
			class[i] = 1
		}
	}
	numClasses := 2
	next := make([]int, len(reach))
	var key []byte
	for {
		sig := map[string]int{}
		for i, s := range reach {
			key = binary.AppendUvarint(key[:0], uint64(class[i]))
			for _, t := range d.row(s) {
				key = binary.AppendUvarint(key, uint64(class[renum[t]]))
			}
			c, ok := sig[string(key)]
			if !ok {
				c = len(sig)
				sig[string(key)] = c
			}
			next[i] = c
		}
		if len(sig) == numClasses {
			break
		}
		numClasses = len(sig)
		class, next = next, class
	}

	// Build the quotient.
	out := &DFA{Vars: d.Vars, Initial: class[renum[d.Initial]]}
	out.Trans = make([]int, numClasses*d.symbols())
	out.Accept = make([]bool, numClasses)
	filled := make([]bool, numClasses)
	for i, s := range reach {
		c := class[i]
		if !filled[c] {
			filled[c] = true
			row := out.row(c)
			for sym, t := range d.row(s) {
				row[sym] = class[renum[t]]
			}
			out.Accept[c] = d.Accept[s]
		}
	}
	return out
}

// Isomorphic reports whether two DFAs over the same tracks are isomorphic
// (after minimization this is relation equality). The check walks both in
// lockstep from the initial states.
func Isomorphic(a, b *DFA) bool {
	if len(a.Vars) != len(b.Vars) {
		return false
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return false
		}
	}
	if a.NumStates() != b.NumStates() {
		return false
	}
	match := map[int]int{a.Initial: b.Initial}
	stack := []int{a.Initial}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := match[s]
		if a.Accept[s] != b.Accept[t] {
			return false
		}
		for sym, as := range a.row(s) {
			bs := b.row(t)[sym]
			if prev, ok := match[as]; ok {
				if prev != bs {
					return false
				}
				continue
			}
			match[as] = bs
			stack = append(stack, as)
		}
	}
	return true
}

// Equivalent decides whether two Presburger formulas agree on every
// assignment over ℕ, by compiling, aligning tracks, minimizing, and
// checking isomorphism. The two constructions share one MaxCells cap.
func Equivalent(f, g *logic.Formula) (bool, error) {
	b := newBudget(nil)
	defer b.release()
	df, err := b.compile(f)
	if err != nil {
		return false, err
	}
	dg, err := b.compile(g)
	if err != nil {
		return false, err
	}
	vars := MergeVars(df.Vars, dg.Vars)
	cf, err := b.cylindrify(df, vars)
	if err != nil {
		return false, err
	}
	cg, err := b.cylindrify(dg, vars)
	if err != nil {
		return false, err
	}
	return Isomorphic(Minimize(cf), Minimize(cg)), nil
}

func TestMinimizePreservesRelation(t *testing.T) {
	// x − y ≤ 2 before and after minimization.
	d := leqAtom(t, []string{"x", "y"}, []int64{1, -1}, 2)
	m := Minimize(d)
	if m.NumStates() > d.NumStates() {
		t.Fatalf("minimization grew: %s -> %s", statesString(d), statesString(m))
	}
	for x := int64(0); x <= 6; x++ {
		for y := int64(0); y <= 6; y++ {
			a, err := d.Runs([]int64{x, y})
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.Runs([]int64{x, y})
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("x=%d y=%d: %v vs %v", x, y, a, b)
			}
		}
	}
}

func TestMinimizeCanonical(t *testing.T) {
	// Two syntactically different automata for the same relation minimize
	// to isomorphic DFAs: x ≤ 3 vs x < 4.
	a := leqAtom(t, []string{"x"}, []int64{1}, 3)
	b, err := Compile(context.Background(), logic.Atom(presburger.PredLt, logic.Var("x"), logic.Const("4")))
	if err != nil {
		t.Fatal(err)
	}
	if !Isomorphic(Minimize(a), Minimize(b)) {
		t.Errorf("x≤3 and x<4 should minimize identically")
	}
	// And a different relation does not.
	c := leqAtom(t, []string{"x"}, []int64{1}, 4)
	if Isomorphic(Minimize(a), Minimize(c)) {
		t.Errorf("x≤3 and x≤4 differ")
	}
}

func TestEquivalentBasics(t *testing.T) {
	x := logic.Var("x")
	lt := func(a, b logic.Term) *logic.Formula { return logic.Atom(presburger.PredLt, a, b) }
	le := func(a, b logic.Term) *logic.Formula { return logic.Atom(presburger.PredLe, a, b) }
	eq, err := Equivalent(lt(x, logic.Const("3")), le(x, logic.Const("2")))
	if err != nil || !eq {
		t.Errorf("x<3 ≡ x≤2: %v %v", eq, err)
	}
	eq, err = Equivalent(lt(x, logic.Const("3")), lt(x, logic.Const("4")))
	if err != nil || eq {
		t.Errorf("x<3 ≢ x<4: %v %v", eq, err)
	}
	// Different variable sets align by cylindrification: x<3 vs x<3 ∧ y=y.
	eq, err = Equivalent(lt(x, logic.Const("3")),
		logic.And(lt(x, logic.Const("3")), logic.Eq(logic.Var("y"), logic.Var("y"))))
	if err != nil || !eq {
		t.Errorf("vacuous conjunct should not matter: %v %v", eq, err)
	}
}

// TestEquivalentDifferentialAgainstCooper: formula equivalence by automata
// isomorphism agrees with Cooper's ∀-sentence method.
func TestEquivalentDifferentialAgainstCooper(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cooper := presburger.Eliminator{MaxNodes: 200_000}
	agreements, skipped := 0, 0
	for i := 0; i < 120; i++ {
		f := randOpenFormula(rng)
		g := randOpenFormula(rng)
		a, err := Equivalent(f, g)
		if err != nil {
			t.Fatalf("autarith Equivalent: %v (%v vs %v)", err, f, g)
		}
		b, err := cooper.Equivalent(context.Background(), f, g)
		if err != nil {
			skipped++
			continue
		}
		if a != b {
			t.Fatalf("equivalence oracles disagree on %v vs %v: automata=%v cooper=%v", f, g, a, b)
		}
		agreements++
	}
	if agreements < 80 {
		t.Fatalf("too few comparisons: %d (skipped %d)", agreements, skipped)
	}
	// Also: every formula is equivalent to itself modulo a tautology.
	f := randOpenFormula(rng)
	a, err := Equivalent(f, logic.And(f, logic.True()))
	if err != nil || !a {
		t.Errorf("f ≡ f ∧ true failed: %v %v", a, err)
	}
}

func randOpenFormula(rng *rand.Rand) *logic.Formula {
	x := logic.Var("x")
	atom := func() *logic.Formula {
		c := logic.Const(itoa(int64(rng.Intn(6))))
		switch rng.Intn(3) {
		case 0:
			return logic.Atom(presburger.PredLt, x, c)
		case 1:
			return logic.Atom(presburger.PredDvd, logic.Const(itoa(int64(2+rng.Intn(2)))), x)
		default:
			return logic.Eq(x, c)
		}
	}
	var rec func(d int) *logic.Formula
	rec = func(d int) *logic.Formula {
		if d == 0 {
			return atom()
		}
		switch rng.Intn(4) {
		case 0:
			return atom()
		case 1:
			return logic.Not(rec(d - 1))
		case 2:
			return logic.And(rec(d-1), rec(d-1))
		default:
			return logic.Or(rec(d-1), rec(d-1))
		}
	}
	return rec(2)
}

// statesString renders state counts for diagnostics.
func statesString(d *DFA) string {
	return fmt.Sprintf("%d states / %d tracks", d.NumStates(), len(d.Vars))
}
