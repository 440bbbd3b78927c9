package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/autarith"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/parser"
	"repro/internal/presburger"
	"repro/internal/query"
)

// FuzzRelativeSafety: Theorem 2.5 over ℕ has two engines, the automaton of
// the pure translation (finite iff its tuple count is) and the
// finitization criterion on Cooper. For any formula the parser accepts,
// translated in a fixed state with R = {1, 4, 9, 16}, S = {(1, 4)} and
// T = ∅, the translation keeps the formula's free variables, and whenever
// the automaton compiles and Cooper under a small size guard decides the
// criterion, the two verdicts agree, and neither panics. The seeds are the
// benchmark's four safety templates, the bench table's E4 queries, a join
// the automaton's cap refuses, three divisibility atoms whose moduli only
// the residual atom keeps within the cap, and the complement of the empty
// relation.
func FuzzRelativeSafety(f *testing.F) {
	for _, src := range []string{
		"R(x) | lt(x, 500)",
		"R(x) | lt(500, x)",
		"exists y. (R(y) & lt(x, add(y, 500)))",
		"exists y. (R(y) & lt(y, add(x, 500)))",
		"R(x) & lt(x, 7)",
		"~R(x)",
		"R(x) & R(y) & lt(x, y)",
		"R(a) & R(b) & R(c) & R(d) & R(e) & R(g) & R(h) & R(i) & R(j)",
		"exists y. (S(x, y) | dvd(3, add(x, y)))",
		"dvd(2500, x)",
		"dvd(10000, x)",
		"dvd(40000, x)",
		"~T(x)",
	} {
		f.Add(src)
	}
	st := db.NewState(db.MustScheme(map[string]int{"R": 1, "S": 2, "T": 1}))
	for _, v := range []int64{1, 4, 9, 16} {
		if err := st.Insert("R", domain.Int(v)); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Insert("S", domain.Int(1), domain.Int(4)); err != nil {
		f.Fatal(err)
	}
	syntax := parser.Options{Functions: map[string]bool{
		presburger.FuncAdd: true, presburger.FuncSub: true,
		presburger.FuncMul: true, presburger.FuncNeg: true,
	}}
	cooper := presburger.Eliminator{MaxNodes: 20_000}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := parser.ParseWith(src, syntax)
		if err != nil {
			return
		}
		pure, err := query.Translate(presburger.Domain{}, st, g)
		if err != nil {
			return
		}
		if got, want := pure.FreeVars(), g.FreeVars(); !slices.Equal(got, want) {
			t.Fatalf("%s: translated free variables %v, want %v", src, got, want)
		}
		ctx := context.Background()
		d, err := autarith.Compile(ctx, pure)
		if err != nil {
			return
		}
		_, infinite := d.Count()
		finite, err := cooper.Equivalent(ctx, pure, Finitize(pure))
		if err != nil {
			return
		}
		if finite == infinite {
			t.Fatalf("%s: automaton infinite=%v, finitization criterion finite=%v", src, infinite, finite)
		}
	})
}
