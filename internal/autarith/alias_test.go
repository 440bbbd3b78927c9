package autarith_test

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/autarith"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/presburger"
)

// TestCompileDoesNotAlias: an automaton Compile returned owns its table
// and acceptance. Eight goroutines compile and count other formulas on
// the pooled scratch meanwhile, among them constructions the cap refuses
// and ones cancelled mid-way, and the first automaton's table,
// acceptance and count stay as they were. Run it with -race: a shared
// byte is a reported race, not only a changed one.
func TestCompileDoesNotAlias(t *testing.T) {
	ctx := context.Background()
	first, err := autarith.Compile(ctx, translated(t, 7)[2])
	if err != nil {
		t.Fatal(err)
	}
	trans, accept := slices.Clone(first.Trans), slices.Clone(first.Accept)
	n, infinite := first.Count()
	syntax := parser.Options{Functions: map[string]bool{presburger.FuncAdd: true, presburger.FuncMul: true}}
	others := append(translated(t, 999), translated(t, 3)...)
	for _, src := range []string{
		// Refused by the cap, in the projection and in a product.
		"exists z. ((z = 1 | z = 4 | z = 9 | z = 16) & dvd(997, add(x, z)))",
		"exists z. ((z = 1 | z = 4 | z = 9 | z = 16) & mul(1000003, x) = z)",
		"exists y. (lt(y, 3) & dvd(1875, add(x, y)))",
		"dvd(40000, x) | lt(x, 5)",
	} {
		f, err := parser.ParseWith(src, syntax)
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, f)
	}
	// While the goroutines run, the checks read the automaton alone: Count
	// takes a scratch from the pool, whose race annotations would order
	// the other goroutines' writes before its reads and hide a race.
	check := func() {
		if !slices.Equal(first.Trans, trans) || !slices.Equal(first.Accept, accept) {
			t.Error("the first automaton changed under later constructions")
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				f := others[(g*7+i)%len(others)]
				cctx, cancel := context.WithTimeout(ctx, time.Duration(i%4)*50*time.Microsecond+time.Microsecond)
				if i%2 == 0 {
					cancel() // run to the end or the cap
					cctx = ctx
				}
				compileAndCount(cctx, f)
				cancel()
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		check()
	}
	wg.Wait()
	check()
	if m, inf := first.Count(); m != n || inf != infinite {
		t.Errorf("Count = %d, %v; want %d, %v", m, inf, n, infinite)
	}
}

// compileAndCount compiles f and, when that succeeds, counts it.
func compileAndCount(ctx context.Context, f *logic.Formula) {
	if d, err := autarith.Compile(ctx, f); err == nil {
		d.Count()
	}
}
