package query

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/domains/nless"
	"repro/internal/logic"
	"repro/internal/presburger"
)

// slowDecider delays every decision so tests can cancel a context
// mid-enumeration deterministically.
type slowDecider struct {
	inner domain.Decider
	delay time.Duration
}

func (s slowDecider) Decide(ctx context.Context, f *logic.Formula) (bool, error) {
	time.Sleep(s.delay)
	return s.inner.Decide(ctx, f)
}

// TestEnumerationCtxCancelMidRun cancels the context while the §1.1 loop
// is between rows: the partial answer found so far must come back with
// Complete=false and the context's error — from the automaton over
// Presburger arithmetic and from a slow decider over N<, its capability
// hidden so the decider answers.
func TestEnumerationCtxCancelMidRun(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(5)); err != nil {
		t.Fatal(err)
	}
	// ¬R(x) is infinite: without a deadline the budget is the only stop.
	f := logic.Not(logic.Atom("R", logic.Var("x")))
	for _, c := range []struct {
		dom Enumerable
		dec domain.Decider
	}{
		{presburger.Domain{}, presburger.Decider()},
		{struct{ Enumerable }{nless.Domain{}}, slowDecider{inner: nless.Decider(), delay: 2 * time.Millisecond}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		t0 := time.Now()
		ans, err := EnumerationAnswerSinkCtx(ctx, c.dom, c.dec, st, f,
			EnumerationBudget{Rows: 1 << 20, Probe: 1 << 20}, nil)
		elapsed := time.Since(t0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: want DeadlineExceeded, got %v", c.dom.Name(), err)
		}
		if ans == nil {
			t.Fatalf("%s: cancelled enumeration must return the partial answer", c.dom.Name())
		}
		if ans.Complete {
			t.Fatalf("%s: cancelled enumeration reported complete", c.dom.Name())
		}
		// Promptness: the loop checks between rows and probes, so the
		// return should come within one probe granule (a slow decision) of
		// the deadline, not after the huge budget.
		if elapsed > 2*time.Second {
			t.Fatalf("%s: cancelled enumeration took %v", c.dom.Name(), elapsed)
		}
	}
}

// TestEnumerationCtxAlreadyCancelled: a dead context stops the run before
// the first decision.
func TestEnumerationCtxAlreadyCancelled(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	if err := st.Insert("R", domain.Int(1)); err != nil {
		t.Fatal(err)
	}
	f := logic.Not(logic.Atom("R", logic.Var("x")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ans, err := EnumerationAnswerSinkCtx(ctx, presburger.Domain{}, presburger.Decider(), st, f, DefaultBudget, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if ans != nil && ans.Rows.Len() != 0 {
		t.Fatalf("dead context produced %d rows", ans.Rows.Len())
	}
}

// TestEvalActiveCtxCancel cancels active-domain evaluation and checks the
// partial answer contract: rows so far, Complete=false, context error.
func TestEvalActiveCtxCancel(t *testing.T) {
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for i := 0; i < 64; i++ {
		if err := st.Insert("F", domain.Int(int64(i)), domain.Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	f := logic.Atom("F", logic.Var("x"), logic.Var("y"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ans, err := EvalActiveCtx(ctx, eqDomainOverInts{}, st, f)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if ans == nil || ans.Complete {
		t.Fatalf("cancelled eval: want partial answer, got %+v", ans)
	}
}

// eqDomainOverInts is the equality-only view over integer values: its
// function and predicate interpretations always fail, so only database
// atoms and equality evaluate.
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

var errNoFunc = errors.New("eqints: pure equality signature")
