package algebra_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
)

func TestToRANFDistributesExists(t *testing.T) {
	f := parser.MustParse("exists x. (F(x, y) | F(y, x))")
	g := algebra.ToRANF(f)
	if g.Kind != logic.FOr {
		t.Fatalf("∃ should distribute over ∨: %v", g)
	}
	for _, s := range g.Sub {
		if s.Kind != logic.FExists {
			t.Errorf("disjunct should be existential: %v", s)
		}
	}
}

func TestToRANFDistributesMixedOr(t *testing.T) {
	// F(x,y) ∧ (F(y,z) ∨ F(x,x)): the disjuncts bind different variables,
	// so the conjunction distributes.
	f := parser.MustParse("F(x, y) & (F(y, z) | F(x, x))")
	g := algebra.ToRANF(f)
	if g.Kind != logic.FOr {
		t.Fatalf("mixed disjunction should distribute: %v", g)
	}
}

func TestToRANFLeavesUniformUnions(t *testing.T) {
	f := parser.MustParse("F(x, y) & (F(y, x) | F(x, y))")
	g := algebra.ToRANF(f)
	if g.Kind != logic.FAnd {
		t.Errorf("uniform union should stay put: %v", g)
	}
}

// TestCompileRANFWidensFragment: formulas plain algebra.Compile rejects become
// compilable after RANF rewriting, with answers matching the calculus.
func TestCompileRANFWidensFragment(t *testing.T) {
	ctx := fathersCtx(t)
	scheme := ctx.St.Scheme()
	widened := []string{
		// Mixed-variable disjunction under a conjunction.
		"F(x, y) & (F(y, z) | F(z, x))",
		// Existential over a mixed union.
		"exists y. (F(x, y) & (F(y, z) | F(z, y)))",
	}
	for _, src := range widened {
		f := parser.MustParse(src)
		if _, err := algebra.Compile(scheme, f); err == nil {
			t.Logf("note: plain algebra.Compile already accepts %s", src)
		}
		plan, err := algebra.CompileRANF(scheme, f)
		if err != nil {
			t.Fatalf("algebra.CompileRANF(%s): %v", src, err)
		}
		got, err := plan.Eval(ctx)
		if err != nil {
			t.Fatalf("Eval(%s): %v", src, err)
		}
		want, err := query.EvalActiveCtx(context.Background(), ctx.Dom, ctx.St, f)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Rows.Len() {
			t.Errorf("%s: algebra %d rows, calculus %d", src, got.Len(), want.Rows.Len())
		}
	}
}

// TestToRANFPreservesSemantics on random formulas, via active evaluation.
func TestToRANFPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ctx := fathersCtx(t)
	for i := 0; i < 200; i++ {
		f := randSafeCandidate(rng, 3)
		g := algebra.ToRANF(f)
		a, err := query.EvalActiveCtx(context.Background(), ctx.Dom, ctx.St, f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := query.EvalActiveCtx(context.Background(), ctx.Dom, ctx.St, g)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rows.Len() != b.Rows.Len() {
			t.Fatalf("RANF changed semantics of %v -> %v: %d vs %d rows",
				f, g, a.Rows.Len(), b.Rows.Len())
		}
		for _, row := range a.Rows.Tuples() {
			if !b.Rows.Has(row) {
				t.Fatalf("row %v lost by RANF rewriting of %v", row, f)
			}
		}
	}
}

// TestCompileRANFCoverage: the widened compiler accepts more of the random
// population than the plain one.
func TestCompileRANFCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ctx := fathersCtx(t)
	scheme := ctx.St.Scheme()
	plain, widened := 0, 0
	for i := 0; i < 500; i++ {
		f := randSafeCandidate(rng, 3)
		if _, err := algebra.Compile(scheme, f); err == nil {
			plain++
		}
		if plan, err := algebra.CompileRANF(scheme, f); err == nil {
			widened++
			// And the widened plans still agree with the calculus.
			got, err := plan.Eval(ctx)
			if err != nil {
				t.Fatalf("eval of widened plan for %v: %v", f, err)
			}
			want, err := query.EvalActiveCtx(context.Background(), ctx.Dom, ctx.St, f)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Rows.Len() {
				t.Fatalf("widened plan wrong on %v: %d vs %d", f, got.Len(), want.Rows.Len())
			}
		}
	}
	if widened < plain {
		t.Fatalf("RANF narrowed the fragment: %d < %d", widened, plain)
	}
	if widened == plain {
		t.Logf("note: population produced no separating formulas (plain=%d)", plain)
	}
	t.Logf("compilable: plain %d, widened %d of 500", plain, widened)
}
