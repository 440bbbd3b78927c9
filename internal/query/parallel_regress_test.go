package query

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
)

// failingState returns a state whose active domain has several elements, so
// the parallel evaluator fans out real jobs.
func failingState(t *testing.T) *db.State {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for i := 0; i < 16; i++ {
		if err := st.Insert("F",
			domain.Int(int64(i)), domain.Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestEvalActiveParallelAllWorkersError is the deadlock regression test:
// P is not a database relation, so every evaluation hits the domain's Pred
// (which eqDomainOverInts rejects) and every worker errors on its first
// job. The old implementation left the feeder blocked on the jobs channel,
// the results channel unclosed, and the drain loop waiting forever. The
// watchdog turns a regression into a test failure instead of a hung run.
func TestEvalActiveParallelAllWorkersError(t *testing.T) {
	st := failingState(t)
	f := logic.Atom("P", logic.Var("x"))
	for _, workers := range []int{1, 2, 8} {
		done := make(chan error, 1)
		go func() {
			_, err := EvalActiveParallelCtx(context.Background(), eqDomainOverInts{}, st, f, workers)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: all workers fail, expected an error", workers)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: EvalActiveParallelCtx deadlocked with all workers erroring", workers)
		}
	}
}

// TestEvalActiveParallelPartialErrors drives a domain whose Pred fails only
// for some assignments, so successful and failing workers race: the call
// must still return promptly with the error.
func TestEvalActiveParallelPartialErrors(t *testing.T) {
	st := failingState(t)
	// P(x) errors via the domain; F rows evaluate fine. The conjunction
	// forces every job through the failing predicate eventually, but
	// individual workers may complete F-only work first.
	f := logic.Or(logic.Atom("F", logic.Var("x"), logic.Var("y")), logic.Atom("P", logic.Var("x")))
	done := make(chan error, 1)
	go func() {
		_, err := EvalActiveParallelCtx(context.Background(), eqDomainOverInts{}, st, f, 4)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected the domain predicate error to surface")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("EvalActiveParallelCtx deadlocked on mixed success/error workers")
	}
}

// TestEvalActiveParallelNoGoroutineLeak runs both the success and the
// all-error path repeatedly and checks the goroutine count settles back to
// its baseline: every worker and feeder must exit before the call returns
// (or immediately after, for the feeder aborted via the stop channel).
func TestEvalActiveParallelNoGoroutineLeak(t *testing.T) {
	st := failingState(t)
	ok := logic.Atom("F", logic.Var("x"), logic.Var("y"))
	bad := logic.Atom("P", logic.Var("x"))
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := EvalActiveParallelCtx(context.Background(), eqDomainOverInts{}, st, ok, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := EvalActiveParallelCtx(context.Background(), eqDomainOverInts{}, st, bad, 4); err == nil {
			t.Fatal("error path unexpectedly succeeded")
		}
	}
	// The aborted feeder may still be between its select and return; give
	// stragglers a moment before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across 40 parallel evaluations", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
