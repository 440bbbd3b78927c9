package autarith_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/autarith"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/presburger"
	"repro/internal/query"
)

// compileAllocCeiling bounds the objects one Compile and Count of a
// safety-shaped translation allocates: measured at 35 with Go 1.24.0,
// with the 1.23 ratio of the served path's ceilings. Go 1.22 was not
// measured. Lower it when a change earns it.
const compileAllocCeiling = 43

// safetyTemplates are the four query shapes of the benchmark's safety
// workload; each has one %d for its constant.
var safetyTemplates = []string{
	"R(x) | lt(x, %d)",
	"R(x) | lt(%d, x)",
	"exists y. (R(y) & lt(x, add(y, %d)))",
	"exists y. (R(y) & lt(y, add(x, %d)))",
}

// translated returns the four templates, with constant k, translated over
// R = {5, 17, 38, 61}.
func translated(t testing.TB, k int) []*logic.Formula {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, v := range []int64{5, 17, 38, 61} {
		if err := st.Insert("R", domain.Int(v)); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]*logic.Formula, len(safetyTemplates))
	for i, src := range safetyTemplates {
		f, err := parser.ParseWith(fmt.Sprintf(src, k), parser.Options{Functions: map[string]bool{presburger.FuncAdd: true}})
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = query.Translate(presburger.Domain{}, st, f); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCompileAllocs is the automaton's allocation ceiling: one Compile
// and Count of each safety template's translation, averaged over the
// four, as relative safety over ℕ runs them.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	var formulas []*logic.Formula
	for _, k := range []int{1, 7, 250, 999} {
		formulas = append(formulas, translated(t, k)...)
	}
	i := 0
	allocs := testing.AllocsPerRun(400, func() {
		f := formulas[i%len(formulas)]
		i++
		d, err := autarith.Compile(context.Background(), f)
		if err != nil {
			t.Fatal(err)
		}
		d.Count()
	})
	t.Logf("%.1f allocations per Compile and Count", allocs)
	if allocs > compileAllocCeiling {
		t.Fatalf("%.1f allocations per Compile and Count, ceiling %d", allocs, compileAllocCeiling)
	}
}
