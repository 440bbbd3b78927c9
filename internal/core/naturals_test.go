package core

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/nless"
	"repro/internal/domains/wordlex"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/presburger"
	"repro/internal/query"
	"repro/internal/runcfg"
)

// countingDecider counts the decisions it passes on.
type countingDecider struct {
	inner domain.Decider
	n     *int
}

func (c countingDecider) Decide(ctx context.Context, f *logic.Formula) (bool, error) {
	*c.n++
	return c.inner.Decide(ctx, f)
}

// naturalsRun is one §1.1 enumeration: its rows in delivery order, its
// Complete flag, its probes and decisions, and the source its
// query.enumerate span names.
type naturalsRun struct {
	rows              []db.Tuple
	complete          bool
	probes, decisions int64
	source            string
}

// keys renders the run's rows in delivery order.
func (r naturalsRun) keys() string {
	keys := make([]string, len(r.rows))
	for i, row := range r.rows {
		keys[i] = row.Key()
	}
	return strings.Join(keys, ";")
}

// enumerateNaturals enumerates q in st over dom with the planner off, so
// no algebra table stands in for the automaton or the decider.
func enumerateNaturals(t *testing.T, dom query.Enumerable, dec domain.Decider, st *db.State,
	q *logic.Formula) naturalsRun {

	t.Helper()
	rec := trace.NewRecorder()
	rec.Arm(1 << 12)
	defer rec.Disarm()
	ctx := trace.WithRecorder(runcfg.With(context.Background(), runcfg.Config{NoPlan: true}), rec)
	var run naturalsRun
	probes := obs.NewCounter("query.enumerate.probes")
	before := probes.Value()
	decisions := 0
	ans, err := query.EnumerationAnswerSinkCtx(ctx, dom, countingDecider{dec, &decisions}, st, q,
		query.EnumerationBudget{Rows: 8, Probe: 64}, func(_ []string, row db.Tuple) error {
			run.rows = append(run.rows, row)
			return nil
		})
	if err != nil {
		t.Fatalf("%s: %v: %v", dom.Name(), q, err)
	}
	run.complete, run.probes, run.decisions = ans.Complete, probes.Value()-before, int64(decisions)
	for _, e := range rec.Events() {
		if e.Phase != trace.PhaseEnd || e.Name != "query.enumerate" {
			continue
		}
		for _, a := range e.Args {
			if a.Key == "source" {
				run.source = a.Str
			}
		}
	}
	return run
}

// TestNaturalsDifferential: nless and wordlex are Presburger arithmetic
// over ℕ under a rewrite (domain.Naturals). On seeded queries over a unary
// R and a binary S with lt, =, ∃ and ¬, and the wordlex image of each
// query and state (every value v ↦ wordlex.WordAt(v)):
//
//   - the §1.1 enumeration through the automaton and through the domain's
//     decider (the capability hidden) give the same rows, order, Complete
//     and probes, the automaton with no decision, and each names its
//     source on the query.enumerate span;
//   - the wordlex rows are the nless rows read through wordlex.Index;
//   - relative safety over presburger, nless and wordlex gives one
//     verdict, and a complete enumeration is a finite answer.
func TestNaturalsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const n = 100
	finite, complete := 0, 0
	for i := 0; i < n; i++ {
		st := randSafetyState(t, rng)
		q := randOrderQuery(rng)
		wst, wq := wordImage(t, st), wordQuery(q)
		var runs [2]naturalsRun
		for j, c := range []struct {
			dom query.Enumerable
			st  *db.State
			q   *logic.Formula
		}{
			{nless.Domain{}, st, q},
			{wordlex.Domain{}, wst, wq},
		} {
			dec := presburger.Rewritten{Dom: c.dom.(domain.Naturals)}
			auto := enumerateNaturals(t, c.dom, dec, c.st, c.q)
			cooper := enumerateNaturals(t, struct{ query.Enumerable }{c.dom}, dec, c.st, c.q)
			name := c.dom.Name()
			if len(c.q.FreeVars()) > 0 && (auto.source != "automaton" || cooper.source != "decider") {
				t.Fatalf("%s: %v: sources %q and %q, want automaton and decider", name, c.q, auto.source, cooper.source)
			}
			if len(c.q.FreeVars()) > 0 && auto.decisions != 0 {
				t.Fatalf("%s: %v: the automaton asked %d decisions", name, c.q, auto.decisions)
			}
			if auto.keys() != cooper.keys() ||
				auto.complete != cooper.complete || auto.probes != cooper.probes {
				t.Fatalf("%s: %v in %v:\nautomaton %+v\ndecider   %+v", name, c.q, c.st, auto, cooper)
			}
			runs[j] = auto
		}
		// Shortlex order is index order, so the wordlex rows come in the
		// order of the nless rows they stand for.
		indices := naturalsRun{rows: make([]db.Tuple, len(runs[1].rows))}
		for k, row := range runs[1].rows {
			for _, w := range row {
				indices.rows[k] = append(indices.rows[k], domain.Int(wordlex.Index(string(w.(domain.Word)))))
			}
		}
		if indices.keys() != runs[0].keys() {
			t.Fatalf("%v: wordlex rows read through their indices %s, nless rows %s", q, indices.keys(), runs[0].keys())
		}
		var verdicts []bool
		for _, c := range []struct {
			dom domain.Naturals
			st  *db.State
			q   *logic.Formula
		}{
			{presburger.Domain{}, st, q},
			{nless.Domain{}, st, q},
			{wordlex.Domain{}, wst, wq},
		} {
			v, err := RelativeSafetyPresburger(context.Background(), c.dom, c.st, c.q)
			if err != nil {
				t.Fatalf("%s: %v: %v", c.dom.Name(), c.q, err)
			}
			verdicts = append(verdicts, v)
		}
		if verdicts[0] != verdicts[1] || verdicts[0] != verdicts[2] {
			t.Fatalf("%v in %v: presburger, nless, wordlex finite = %v", q, st, verdicts)
		}
		if runs[0].complete && !verdicts[0] {
			t.Fatalf("%v in %v: the enumeration completed with %d rows, relative safety says infinite",
				q, st, len(runs[0].rows))
		}
		if verdicts[0] {
			finite++
		}
		if runs[0].complete {
			complete++
		}
	}
	if finite < n/10 || finite > n*9/10 {
		t.Fatalf("unbalanced draw: %d of %d finite", finite, n)
	}
	t.Logf("%d of %d finite, %d enumerations complete within the budget", finite, n, complete)
}

// randOrderQuery draws a query in N<'s signature over free x and y
// (either may vanish) and bound z: R and S atoms, lt and = between
// variables and numerals below 10, ¬, ∧, ∨ and ∃.
func randOrderQuery(rng *rand.Rand) *logic.Formula {
	vars := []string{"x", "y", "z"}
	term := func() logic.Term {
		if rng.Intn(3) == 0 {
			return logic.Const(strconv.Itoa(rng.Intn(10)))
		}
		return logic.Var(vars[rng.Intn(3)])
	}
	v := func() logic.Term { return logic.Var(vars[rng.Intn(3)]) }
	atom := func() *logic.Formula {
		switch rng.Intn(4) {
		case 0:
			return logic.Atom("R", v())
		case 1:
			return logic.Atom("S", v(), v())
		case 2:
			return logic.Eq(term(), term())
		}
		return logic.Atom(nless.PredLt, term(), term())
	}
	var rec func(d int) *logic.Formula
	rec = func(d int) *logic.Formula {
		if d == 0 {
			return atom()
		}
		switch rng.Intn(6) {
		case 0:
			return atom()
		case 1:
			return logic.Not(rec(d - 1))
		case 2:
			return logic.Or(rec(d-1), rec(d-1))
		case 3:
			return logic.Exists("z", rec(d-1))
		}
		return logic.And(rec(d-1), rec(d-1))
	}
	return rec(3)
}

// wordImage is st with every value v replaced by the word of index v.
func wordImage(t *testing.T, st *db.State) *db.State {
	out := db.NewState(st.Scheme())
	for name := range st.Scheme().Relations {
		rel, err := st.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tuple := range rel.Tuples() {
			words := make([]domain.Value, len(tuple))
			for i, v := range tuple {
				words[i] = domain.Word(wordlex.WordAt(int64(v.(domain.Int))))
			}
			if err := out.Insert(name, words...); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// wordQuery is f with every numeral n replaced by the word of index n.
func wordQuery(f *logic.Formula) *logic.Formula {
	return f.Map(func(h *logic.Formula) *logic.Formula {
		if h.Kind != logic.FAtom {
			return h
		}
		args := make([]logic.Term, len(h.Args))
		for i, a := range h.Args {
			args[i] = a
			if a.Kind == logic.TConst {
				n, _ := strconv.ParseInt(a.Name, 10, 64)
				args[i] = logic.Const(wordlex.WordAt(n))
			}
		}
		return logic.Atom(h.Pred, args...)
	})
}
