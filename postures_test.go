package finq

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/domains/nless"
	"repro/internal/query"
	"repro/internal/runcfg"
)

// outcome is what every posture must agree on: the rows in delivery order
// (sorted order for an active-domain answer), the answer's size (a true
// sentence has one row and delivers none), the Complete flag and the stop
// reason.
type outcome struct {
	rows     string
	size     int
	complete bool
	stopped  string
}

// TestPosturesAgreeConcurrently: the §1.1 algorithm as the paper states
// it and its optimized forms run side by side. Goroutines evaluate the
// same queries at once, each under its own run configuration (the planner
// and the decision cache on and off, sharing the process's plan cache and
// one decision cache), and every run must return what the run with both
// off returns.
func TestPosturesAgreeConcurrently(t *testing.T) {
	t.Parallel()
	const state = `{"relations": {"R": [["3"], ["5"], ["8"], ["13"]]}}`
	parse := func(domainName, src string) (DomainInfo, *State, *Formula) {
		d := MustLookup(domainName)
		st, err := ParseState(d, []byte(state))
		if err != nil {
			t.Fatal(err)
		}
		f, err := d.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return d, st, f
	}
	// served is one finq.Eval over presburger, whose registry decider is
	// cached: the algebra and closure tiers or the interpreter in active
	// mode; a plan's table, the automaton or the decider in enumerate mode.
	served := func(src string, mode EvalMode, budget *EnumerationBudget) func(context.Context) (outcome, error) {
		d, st, f := parse("presburger", src)
		return func(ctx context.Context) (outcome, error) {
			var seq []string
			req := Request{Domain: d.Name, State: st, Formula: f, Mode: mode, Budget: budget}
			if mode == ModeEnumerate {
				req.OnRow = func(_ []string, row Tuple) error {
					seq = append(seq, row.Key())
					return nil
				}
			}
			res, err := Eval(ctx, req)
			if err != nil {
				return outcome{}, err
			}
			if mode == ModeActive {
				for _, row := range res.Answer.Rows.Tuples() {
					seq = append(seq, row.Key())
				}
			}
			return outcome{strings.Join(seq, ";"), res.Answer.Rows.Len(), res.Answer.Complete, res.Stopped}, nil
		}
	}
	// decided is the §1.1 loop over N<, with the planner on a plan's table
	// when one applies, and otherwise the automaton, or with the domain's
	// capability hidden (pinned), the decider: one N< decision cache
	// shared by every goroutine.
	cache := nless.Decider()
	decided := func(src string, pinned bool) func(context.Context) (outcome, error) {
		d, st, f := parse("nless", src)
		en := d.Domain.(query.Enumerable)
		if pinned {
			en = struct{ query.Enumerable }{en}
		}
		return func(ctx context.Context) (outcome, error) {
			var seq []string
			ans, err := query.EnumerationAnswerSinkCtx(ctx, en, cache, st, f, DefaultBudget, func(_ []string, row Tuple) error {
				seq = append(seq, row.Key())
				return nil
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{strings.Join(seq, ";"), ans.Rows.Len(), ans.Complete, ""}, nil
		}
	}
	queries := []struct {
		name string
		run  func(context.Context) (outcome, error)
	}{
		{"active/algebra", served("R(x) & lt(x, 9)", ModeActive, nil)},
		{"active/closure", served("exists y. (R(y) & lt(x, y))", ModeActive, nil)},
		{"enum/table", served("R(x) & lt(x, 9)", ModeEnumerate, nil)},
		{"enum/automaton", served("exists y. (R(y) & lt(x, y))", ModeEnumerate, nil)},
		{"enum/budget", served("~R(x)", ModeEnumerate, &EnumerationBudget{Rows: 12, Probe: 1 << 10})},
		{"enum/sentence", served("exists y. (R(y) & lt(y, 4))", ModeEnumerate, nil)},
		{"enum/nless-table", decided("R(x) & lt(x, 9)", false)},
		{"enum/nless-automaton", decided("exists y. (R(y) & lt(x, y)) & lt(x, 7)", false)},
		{"enum/nless-decider", decided("exists y. (R(y) & lt(x, y)) & lt(x, 7)", true)},
	}
	postures := []runcfg.Config{{}, {NoPlan: true}, {NoCache: true}, {NoPlan: true, NoCache: true}}
	want := make([]outcome, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = q.run(runcfg.With(context.Background(), postures[3])); err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2*len(postures); g++ {
		cfg := postures[g%len(postures)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := runcfg.With(context.Background(), cfg)
			for i := range queries {
				// Each goroutine starts at its own query, so different
				// postures meet on the same query at once.
				q := queries[(i+g)%len(queries)]
				got, err := q.run(ctx)
				if err != nil {
					t.Errorf("%s under %+v: %v", q.name, cfg, err)
				} else if w := want[(i+g)%len(queries)]; got != w {
					t.Errorf("%s under %+v: %s, want %s", q.name, cfg, fmtOutcome(got), fmtOutcome(w))
				}
			}
		}()
	}
	wg.Wait()
}

func fmtOutcome(o outcome) string {
	return fmt.Sprintf("rows [%s] size %d complete=%v stopped=%q", o.rows, o.size, o.complete, o.stopped)
}
