package query

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/parser"
)

func TestEvalActiveParallelAgreesWithSerial(t *testing.T) {
	st := fathersState(t)
	queries := []string{
		"F(x, y)",
		"exists y. F(x, y)",
		"exists y. (F(x, y) & F(y, z))",
		"F(x, y) & ~F(y, x)",
		`exists x. F("adam", x)`, // boolean
		"forall y. (F(x, y) -> y != x)",
	}
	for _, src := range queries {
		f := parser.MustParse(src)
		serial, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
		if err != nil {
			t.Fatalf("serial %s: %v", src, err)
		}
		for _, workers := range []int{0, 1, 4} {
			par, err := EvalActiveParallelCtx(context.Background(), eqdom.Domain{}, st, f, workers)
			if err != nil {
				t.Fatalf("parallel(%d) %s: %v", workers, src, err)
			}
			if par.Rows.Len() != serial.Rows.Len() {
				t.Fatalf("%s workers=%d: %d rows vs serial %d",
					src, workers, par.Rows.Len(), serial.Rows.Len())
			}
			for _, row := range serial.Rows.Tuples() {
				if !par.Rows.Has(row) {
					t.Errorf("%s workers=%d: row %v missing", src, workers, row)
				}
			}
		}
	}
}

func TestEvalActiveParallelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for i := 0; i < 12; i++ {
		if err := st.Insert("F",
			domain.Int(int64(rng.Intn(6))), domain.Int(int64(rng.Intn(6)))); err != nil {
			t.Fatal(err)
		}
	}
	gen := func(depth int) *logic.Formula {
		var rec func(d int) *logic.Formula
		vars := []string{"x", "y", "z"}
		rec = func(d int) *logic.Formula {
			atom := logic.Atom("F",
				logic.Var(vars[rng.Intn(3)]), logic.Var(vars[rng.Intn(3)]))
			if d == 0 {
				return atom
			}
			switch rng.Intn(4) {
			case 0:
				return logic.And(rec(d-1), rec(d-1))
			case 1:
				return logic.Or(rec(d-1), rec(d-1))
			case 2:
				return logic.Not(rec(d - 1))
			default:
				return logic.Exists(vars[rng.Intn(3)], rec(d-1))
			}
		}
		return rec(depth)
	}
	d := eqDomainOverInts{}
	for i := 0; i < 50; i++ {
		f := gen(3)
		serial, err := EvalActiveCtx(context.Background(), d, st, f)
		if err != nil {
			t.Fatal(err)
		}
		par, err := EvalActiveParallelCtx(context.Background(), d, st, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Rows.Len() != par.Rows.Len() {
			t.Fatalf("disagreement on %v: %d vs %d", f, serial.Rows.Len(), par.Rows.Len())
		}
	}
}

// eqDomainOverInts is the equality-only view over integer values, enough
// for random evaluation tests.
type eqDomainOverInts struct{}

func (eqDomainOverInts) Name() string { return "eqints" }
func (eqDomainOverInts) ConstValue(name string) (domain.Value, error) {
	return eqdom.Domain{}.ConstValue(name)
}
func (eqDomainOverInts) ConstName(v domain.Value) string { return v.Key() }
func (eqDomainOverInts) Func(string, []domain.Value) (domain.Value, error) {
	return nil, errNoFunc
}
func (eqDomainOverInts) Pred(string, []domain.Value) (bool, error) {
	return false, errNoFunc
}

var errNoFunc = &noFuncError{}

type noFuncError struct{}

func (*noFuncError) Error() string { return "eqints: pure equality signature" }
