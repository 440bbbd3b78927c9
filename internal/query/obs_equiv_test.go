package query

import (
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/plan"
)

// rowsKey renders an answer's rows as a canonical sorted string.
func rowsKey(t *testing.T, a *Answer) string {
	t.Helper()
	var keys []string
	for _, row := range a.Rows.Tuples() {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.Key()
		}
		keys = append(keys, strings.Join(parts, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// TestEvalActiveUnchangedByInstrumentation asserts the instrumented
// evaluator returns results identical to the seed evaluator: the same
// query in the same state produces the same rows with observation on,
// off, and via the parallel evaluator.
func TestEvalActiveUnchangedByInstrumentation(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for _, pair := range [][2]string{{"adam", "abel"}, {"adam", "cain"}, {"eve", "abel"}, {"seth", "enos"}} {
		if err := st.Insert("F", domain.Word(pair[0]), domain.Word(pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	queries := []*logic.Formula{
		logic.Exists("y", logic.Atom("F", logic.Var("x"), logic.Var("y"))),
		logic.And(
			logic.Atom("F", logic.Var("x"), logic.Var("y")),
			logic.Not(logic.Eq(logic.Var("x"), logic.Var("y")))),
		logic.Forall("y", logic.Implies(
			logic.Atom("F", logic.Var("x"), logic.Var("y")),
			logic.Not(logic.Eq(logic.Var("x"), logic.Var("y"))))),
	}
	dom := eqdom.Domain{}
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	for i, f := range queries {
		obs.Enable()
		on, err := EvalActiveCtx(context.Background(), dom, st, f)
		if err != nil {
			t.Fatalf("query %d (obs on): %v", i, err)
		}
		obs.Disable()
		off, err := EvalActiveCtx(context.Background(), dom, st, f)
		if err != nil {
			t.Fatalf("query %d (obs off): %v", i, err)
		}
		obs.Enable()
		par, err := EvalActiveParallelCtx(context.Background(), dom, st, f, 4)
		if err != nil {
			t.Fatalf("query %d (parallel): %v", i, err)
		}
		kOn, kOff, kPar := rowsKey(t, on), rowsKey(t, off), rowsKey(t, par)
		if kOn != kOff {
			t.Errorf("query %d: rows differ with observation on/off:\n%s\n%s", i, kOn, kOff)
		}
		if kOn != kPar {
			t.Errorf("query %d: serial and parallel rows differ:\n%s\n%s", i, kOn, kPar)
		}
		if on.Complete != off.Complete {
			t.Errorf("query %d: Complete differs with observation on/off", i)
		}
	}
}

// TestParallelSerialAgreementTraced: with observability enabled AND the
// flight recorder armed, the parallel evaluator agrees with the serial one
// row for row. Run under -race this also exercises the recorder's
// concurrent emit path (worker goroutines each resolve their own tid and
// share the ring).
func TestParallelSerialAgreementTraced(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	trace.Arm(1 << 12)
	defer trace.Disarm()
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	words := []string{"adam", "eve", "cain", "abel", "seth", "enos"}
	for i, a := range words {
		for j, b := range words {
			if (i+j)%3 == 0 && i != j {
				if err := st.Insert("F", domain.Word(a), domain.Word(b)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	queries := []*logic.Formula{
		logic.Exists("y", logic.Atom("F", logic.Var("x"), logic.Var("y"))),
		logic.Forall("y", logic.Implies(
			logic.Atom("F", logic.Var("x"), logic.Var("y")),
			logic.Exists("z", logic.Atom("F", logic.Var("y"), logic.Var("z"))))),
		logic.And(
			logic.Atom("F", logic.Var("x"), logic.Var("y")),
			logic.Not(logic.Atom("F", logic.Var("y"), logic.Var("x")))),
	}
	dom := eqdom.Domain{}
	for i, f := range queries {
		serial, err := EvalActiveCtx(context.Background(), dom, st, f)
		if err != nil {
			t.Fatalf("query %d serial: %v", i, err)
		}
		for _, workers := range []int{1, 2, 8} {
			par, err := EvalActiveParallelCtx(context.Background(), dom, st, f, workers)
			if err != nil {
				t.Fatalf("query %d parallel(%d): %v", i, workers, err)
			}
			if ks, kp := rowsKey(t, serial), rowsKey(t, par); ks != kp {
				t.Errorf("query %d: serial and parallel(%d) rows differ while traced:\n%s\n%s", i, workers, ks, kp)
			}
		}
	}
	if trace.Len() == 0 {
		t.Error("armed recorder captured no events from the evaluators")
	}
}

// TestEvalActiveMetrics: evaluating a query moves the query-layer
// counters in the expected directions.
func TestEvalActiveMetrics(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	// The assignment counter is an interpreter metric; a compiled plan
	// would serve this query without assignments.
	prevPlan := plan.SetEnabled(false)
	defer plan.SetEnabled(prevPlan)
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	for _, w := range []string{"a", "b", "c"} {
		if err := st.Insert("R", domain.Word(w)); err != nil {
			t.Fatal(err)
		}
	}
	f := logic.Atom("R", logic.Var("x"))
	calls0, rows0, leaves0 := mEvalCalls.Value(), mEvalRows.Value(), mEvalAssigns.Value()
	ans, err := EvalActiveCtx(context.Background(), eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Rows.Len() != 3 {
		t.Fatalf("want 3 rows, got %d", ans.Rows.Len())
	}
	if mEvalCalls.Value() != calls0+1 {
		t.Errorf("eval calls: got %d, want %d", mEvalCalls.Value(), calls0+1)
	}
	if mEvalRows.Value() != rows0+3 {
		t.Errorf("eval rows: got %d, want %d", mEvalRows.Value(), rows0+3)
	}
	if mEvalAssigns.Value() != leaves0+3 {
		t.Errorf("eval assignments: got %d, want %d (|active domain|^|vars| = 3)", mEvalAssigns.Value(), leaves0+3)
	}
}
