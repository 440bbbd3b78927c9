package plan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/runcfg"
)

// fathersState is the shared fixture: F = {(adam,abel),(adam,cain),(cain,enoch)}.
func fathersState(t *testing.T) *db.State {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for _, p := range [][2]string{{"adam", "abel"}, {"adam", "cain"}, {"cain", "enoch"}} {
		if err := st.Insert("F", domain.Word(p[0]), domain.Word(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// rangeOf mirrors the evaluator's active range: the state's active domain
// (the fixture has no constants worth adding).
func rangeOf(st *db.State) []domain.Value { return st.ActiveDomain() }

func planFor(t *testing.T, st *db.State, src string) *Plan {
	t.Helper()
	resetCache()
	return For(context.Background(), st.Scheme(), "eq", "", parser.MustParse(src))
}

func evalPlan(t *testing.T, p *Plan, st *db.State) *Result {
	t.Helper()
	res, err := p.EvalActive(context.Background(), eqdom.Domain{}, st, rangeOf(st))
	if err != nil {
		t.Fatalf("EvalActive(tier=%s): %v", p.Tier(), err)
	}
	return res
}

// TestTierSelection pins which fragment lands where: safe-range formulas
// compile to algebra, everything else the evaluator accepts compiles to
// closures.
func TestTierSelection(t *testing.T) {
	st := fathersState(t)
	cases := []struct {
		src  string
		tier Tier
	}{
		{"F(x, y)", TierAlgebra},
		{"exists y. F(x, y)", TierAlgebra},
		{"F(x, y) & (forall z. (~F(x, z) | F(z, z) | (exists w. F(z, w))))", TierAlgebra},
		{"~F(x, y)", TierClosure},
		{"x = y", TierClosure},
		{"forall y. F(x, y)", TierClosure},
	}
	for _, tc := range cases {
		p := planFor(t, st, tc.src)
		if p.Tier() != tc.tier {
			t.Errorf("%s: tier %s, want %s (%s)", tc.src, p.Tier(), tc.tier, p.reason)
		}
	}
}

// TestClosureMatchesAlgebra runs formulas both tiers accept through each
// and requires identical answers.
func TestClosureMatchesAlgebra(t *testing.T) {
	st := fathersState(t)
	srcs := []string{
		"F(x, y)",
		"exists y. F(x, y)",
		"exists x. F(x, y)",
		"F(x, y) & F(y, z)",
		"F(x, y) & x = x",
		"exists y. (F(x, y) & (exists z. F(y, z)))",
		"F(x, y) & (forall z. (~F(y, z) | F(x, z)))",
	}
	for _, src := range srcs {
		f := parser.MustParse(src)
		resetCache()
		p := For(context.Background(), st.Scheme(), "eq", "", f)
		if p.Tier() != TierAlgebra {
			t.Fatalf("%s: tier %s, want algebra (%s)", src, p.Tier(), p.reason)
		}
		want := evalPlan(t, p, st)

		pr, err := compileClosure(st.Scheme(), f)
		if err != nil {
			t.Fatalf("compileClosure(%s): %v", src, err)
		}
		got, err := pr.run(context.Background(), eqdom.Domain{}, st, rangeOf(st))
		if err != nil {
			t.Fatalf("closure run(%s): %v", src, err)
		}
		if !sameRows(got, want) {
			t.Errorf("%s: closure ≠ algebra\nclosure: %v\nalgebra: %v", src, dumpRows(got), dumpRows(want))
		}
	}
}

// TestClosureSemantics pins closure-tier answers on formulas outside the
// algebra fragment against hand-computed active-domain results.
func TestClosureSemantics(t *testing.T) {
	st := fathersState(t)
	// Active domain: {abel, adam, cain, enoch}.
	cases := []struct {
		src  string
		want []string // row keys "a|b"
	}{
		// Non-safe-range negation: pairs NOT in F over the active domain.
		{"~F(x, x)", []string{"abel", "adam", "cain", "enoch"}},
		// x is a father of everyone he fathered (trivially all x): ∀-only.
		{"forall y. (F(x, y) -> F(x, y))", []string{"abel", "adam", "cain", "enoch"}},
		// x fathered everything that cain fathered.
		{`forall y. (F("cain", y) -> F(x, y))`, []string{"cain"}},
	}
	// "cain" parses as a constant; eqdom resolves any name to itself.
	for _, tc := range cases {
		p := planFor(t, st, tc.src)
		if p.Tier() != TierClosure {
			t.Fatalf("%s: tier %s, want closure (%s)", tc.src, p.Tier(), p.reason)
		}
		res := evalPlan(t, p, st)
		got := map[string]bool{}
		for _, row := range res.Rows.Tuples() {
			got[row.Key()] = true
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: %d rows %v, want %d", tc.src, len(got), dumpRows(res), len(tc.want))
			continue
		}
		for _, w := range tc.want {
			key := db.Tuple{domain.Word(w)}.Key()
			if !got[key] {
				t.Errorf("%s: missing row %q (have %v)", tc.src, w, dumpRows(res))
			}
		}
	}
}

// TestClosureShadowing: an inner binder reusing a free variable's name
// must not leak — the outer slot survives the inner loop.
func TestClosureShadowing(t *testing.T) {
	st := fathersState(t)
	// Free x, then an inner ∃x: holds for y with some father (inner x),
	// paired with every active-domain value of the free x.
	p := planFor(t, st, "x = x & (exists x. F(x, y))")
	if p.Tier() != TierClosure {
		// The RANF rewrite may widen this into the algebra tier; both are
		// correct, but this test targets the closure runtime.
		pr, err := compileClosure(st.Scheme(), parser.MustParse("x = x & (exists x. F(x, y))"))
		if err != nil {
			t.Fatalf("compileClosure: %v", err)
		}
		res, err := pr.run(context.Background(), eqdom.Domain{}, st, rangeOf(st))
		if err != nil {
			t.Fatal(err)
		}
		checkShadowRows(t, res)
		return
	}
	checkShadowRows(t, evalPlan(t, p, st))
}

func checkShadowRows(t *testing.T, res *Result) {
	t.Helper()
	// y ∈ {abel, cain, enoch} (the fathered), x ranges over all 4 values.
	if res.Rows.Len() != 4*3 {
		t.Fatalf("shadowed query: %d rows, want 12: %v", res.Rows.Len(), dumpRows(res))
	}
}

// TestNarrowingSoundness compares narrowed existentials against the
// algebra answer — the narrowed witness search must not lose rows.
func TestNarrowingSoundness(t *testing.T) {
	st := fathersState(t)
	f := parser.MustParse("exists y. (F(y, x) & y = y)")
	pr, err := compileClosure(st.Scheme(), f)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.narrows) == 0 {
		t.Fatal("expected a narrowed existential range")
	}
	got, err := pr.run(context.Background(), eqdom.Domain{}, st, rangeOf(st))
	if err != nil {
		t.Fatal(err)
	}
	// Algebra tier answers the same query.
	resetCache()
	p := For(context.Background(), st.Scheme(), "eq", "", f)
	if p.Tier() != TierAlgebra {
		t.Fatalf("tier %s (%s)", p.Tier(), p.reason)
	}
	want := evalPlan(t, p, st)
	if !sameRows(got, want) {
		t.Errorf("narrowed closure ≠ algebra\nclosure: %v\nalgebra: %v", dumpRows(got), dumpRows(want))
	}
}

// TestCacheHitsAndTally: the second For of the same key is a cache hit,
// counted on the context's runcfg.Counts; their tier is the tier of the
// plan that served, recorded when the plan runs rather than at lookup.
func TestCacheHitsAndTally(t *testing.T) {
	st := fathersState(t)
	resetCache()
	f := parser.MustParse("F(x, y)")
	ctx, counts := runcfg.WithCounts(context.Background())
	p1 := For(ctx, st.Scheme(), "eq", "", f)
	p2 := For(ctx, st.Scheme(), "eq", "", f)
	if p1 != p2 {
		t.Fatal("same key compiled twice")
	}
	if counts.PlanHits.Load() != 1 || counts.PlanMisses.Load() != 1 {
		t.Fatalf("counts hits=%d misses=%d, want 1/1", counts.PlanHits.Load(), counts.PlanMisses.Load())
	}
	if counts.Tier() != "" {
		t.Fatalf("counted tier %q before any plan ran, want empty", counts.Tier())
	}
	if _, err := p1.EvalActive(ctx, eqdom.Domain{}, st, rangeOf(st)); err != nil {
		t.Fatal(err)
	}
	if counts.Tier() != string(TierAlgebra) {
		t.Fatalf("counted tier %q, want algebra", counts.Tier())
	}
	// A different scheme must not share the plan.
	other := db.MustScheme(map[string]int{"F": 2, "G": 1})
	p3 := For(ctx, other, "eq", "", f)
	if p3 == p1 {
		t.Fatal("plan shared across schemes")
	}
	// A different domain must not share the plan either.
	p4 := For(ctx, st.Scheme(), "nless", "", f)
	if p4 == p1 {
		t.Fatal("plan shared across domains")
	}
}

// TestClosureCompiledOnceConcurrently: goroutines sharing one plan
// outside the algebra tier race to compile its closure program. Exactly
// one compile is recorded, every active-domain evaluation gets the same
// rows, and Answer keeps falling back without compiling.
func TestClosureCompiledOnceConcurrently(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	st := fathersState(t)
	p := planFor(t, st, "~F(x, y)")
	before := mTierClosure.Value()
	const goroutines = 8
	var wg sync.WaitGroup
	rows := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := p.Answer(context.Background(), eqdom.Domain{}, st); !errors.Is(err, ErrFallback) {
				t.Errorf("Answer on a closure plan: %v, want ErrFallback", err)
			}
			res, err := p.EvalActive(context.Background(), eqdom.Domain{}, st, rangeOf(st))
			if err != nil {
				t.Errorf("EvalActive: %v", err)
				return
			}
			rows[g] = res.Rows.Len()
			if !strings.Contains(p.Text(), "tier=closure") {
				t.Errorf("plan text misses the closure tier:\n%s", p.Text())
			}
		}(g)
	}
	wg.Wait()
	if got := mTierClosure.Value() - before; got != 1 {
		t.Fatalf("%d closure compiles, want 1", got)
	}
	// 4 active-domain values, 3 of the 16 pairs in F.
	for g, n := range rows {
		if n != 13 {
			t.Fatalf("goroutine %d: %d rows, want 13", g, n)
		}
	}
}

// TestCacheEviction: the LRU stays bounded.
func TestCacheEviction(t *testing.T) {
	resetCache()
	scheme := db.MustScheme(map[string]int{"F": 2})
	for i := 0; i <= DefaultCacheCapacity+8; i++ {
		f := logic.Eq(logic.Var("x"), logic.Const(fmt.Sprintf("c%d", i)))
		For(context.Background(), scheme, "eq", "", f)
	}
	cache.mu.Lock()
	n := cache.order.Len()
	cache.mu.Unlock()
	if n != DefaultCacheCapacity {
		t.Fatalf("cache size %d, want %d", n, DefaultCacheCapacity)
	}
	resetCache()
}

// TestPlanText: EXPLAIN text names the tier and the compiled form.
func TestPlanText(t *testing.T) {
	st := fathersState(t)
	p := planFor(t, st, "exists y. F(x, y)")
	txt := p.Text()
	if !strings.Contains(txt, "tier=algebra") || !strings.Contains(txt, "algebra:") {
		t.Errorf("algebra plan text missing pieces:\n%s", txt)
	}
	p = planFor(t, st, "~F(x, y)")
	if txt := p.Text(); !strings.Contains(txt, "tier=closure") {
		t.Errorf("closure plan text missing tier:\n%s", txt)
	}
}

// TestClosureCancellation: a cancelled context yields a partial result
// with Complete=false and the context error, like the generic evaluator.
func TestClosureCancellation(t *testing.T) {
	st := fathersState(t)
	f := parser.MustParse("~F(x, y)")
	pr, err := compileClosure(st.Scheme(), f)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := pr.run(ctx, eqdom.Domain{}, st, rangeOf(st))
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if res == nil || res.Complete {
		t.Fatalf("cancelled run: result %+v, want partial with Complete=false", res)
	}
}

// TestAlgebraCancellation: an algebra-tier plan polls the context between
// operators, so a cancelled evaluation stops with the context error and a
// partial result, like the closure tier, for queries and sentences alike.
func TestAlgebraCancellation(t *testing.T) {
	st := fathersState(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, src := range []string{
		"F(x, y) & (forall z. (~F(x, z) | F(z, z) | (exists w. F(z, w))))",
		"exists x. exists y. (F(x, y) & ~F(y, x))",
	} {
		p := planFor(t, st, src)
		if p.Tier() != TierAlgebra {
			t.Fatalf("%s: tier %s, want algebra", src, p.Tier())
		}
		res, err := p.EvalActive(ctx, eqdom.Domain{}, st, rangeOf(st))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled run returned %v", src, err)
		}
		if res == nil || res.Complete || (res.Rows != nil && res.Rows.Len() != 0) {
			t.Fatalf("%s: cancelled run: result %+v, want an empty partial one", src, res)
		}
	}
}

// TestOptimizerEquivalence: the algebra rewrites preserve results on
// compiled plans with pushable selections and reorderable joins.
func TestOptimizerEquivalence(t *testing.T) {
	st := fathersState(t)
	actx := &algebra.Ctx{St: st, Dom: eqdom.Domain{}}
	srcs := []string{
		"F(x, y) & F(y, z) & F(z, w)",
		"F(x, y) & F(y, z) & x = x",
		"F(x, y) & F(u, v) & F(y, u)",
		"exists y. (F(x, y) & F(y, z))",
	}
	for _, src := range srcs {
		e, err := algebra.CompileRANF(st.Scheme(), parser.MustParse(src))
		if err != nil {
			t.Fatalf("CompileRANF(%s): %v", src, err)
		}
		want, err := e.Eval(actx)
		if err != nil {
			t.Fatalf("Eval(%s): %v", src, err)
		}
		opt, _ := optimizeAlgebra(e)
		got, err := opt.Eval(actx)
		if err != nil {
			t.Fatalf("optimized Eval(%s): %v\nplan: %s", src, err, opt.String())
		}
		if !sameColSet(got.Cols, want.Cols) || got.Len() != want.Len() {
			t.Fatalf("%s: optimized shape differs: %v/%d vs %v/%d\nplan: %s",
				src, got.Cols, got.Len(), want.Cols, want.Len(), opt.String())
		}
		idx := map[string]int{}
		for i, c := range got.Cols {
			idx[c] = i
		}
		perm := make([]int, len(want.Cols))
		for i, c := range want.Cols {
			perm[i] = idx[c]
		}
		for _, row := range want.Rows() {
			moved := make([]domain.Value, len(perm))
			for i := range perm {
				moved[perm[i]] = row[i]
			}
			if !got.Has(moved) {
				t.Fatalf("%s: optimized plan lost row %v\nplan: %s", src, row, opt.String())
			}
		}
	}
}

// TestSelectionPushdown: a straddling-free condition moves below the join.
func TestSelectionPushdown(t *testing.T) {
	base1 := &algebra.Base{Rel: "F", Cols: []string{"x", "y"}}
	base2 := &algebra.Base{Rel: "F", Cols: []string{"y", "z"}}
	e := &algebra.Select{
		In:   &algebra.Join{L: base1, R: base2},
		Cond: algebra.CondEq{A: algebra.ColArg("x"), B: algebra.ConstArg("adam")},
	}
	opt, notes := optimizeAlgebra(e)
	if _, stillTop := opt.(*algebra.Select); stillTop {
		t.Fatalf("selection not pushed: %s", opt.String())
	}
	if len(notes) == 0 {
		t.Fatal("pushdown not noted")
	}
	st := fathersState(t)
	actx := &algebra.Ctx{St: st, Dom: eqdom.Domain{}}
	want, err := e.Eval(actx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := opt.Eval(actx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("pushdown changed cardinality: %d vs %d", got.Len(), want.Len())
	}
}

func sameRows(a, b *Result) bool {
	if a.Rows == nil || b.Rows == nil {
		return a.Truth == b.Truth
	}
	if a.Rows.Len() != b.Rows.Len() {
		return false
	}
	for _, row := range a.Rows.Tuples() {
		if !b.Rows.Has(row) {
			return false
		}
	}
	return true
}

func dumpRows(r *Result) string {
	if r.Rows == nil {
		return fmt.Sprintf("truth=%v", r.Truth)
	}
	var parts []string
	for _, row := range r.Rows.Tuples() {
		parts = append(parts, row.String())
	}
	return strings.Join(parts, " ")
}
