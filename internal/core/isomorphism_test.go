package core

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/domains/nless"
	"repro/internal/domains/wordlex"
	"repro/internal/logic"
	"repro/internal/presburger"
)

// TestOrderIsomorphismDifferential: N< and ({a,b}*, <shortlex) are
// isomorphic orders, so corresponding sentences must decide identically.
// Random order sentences are generated once over abstract constants and
// instantiated per domain — numerals for N<, the matching shortlex words
// for wordlex. Any disagreement would reveal a bug in exactly one of the
// two decision pipelines.
func TestOrderIsomorphismDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 120; i++ {
		shape := randOrderSentence(rng, 2)
		natSentence := instantiate(shape, func(n int) logic.Term {
			return logic.Const(strconv.Itoa(n))
		})
		lexSentence := instantiate(shape, func(n int) logic.Term {
			return logic.Const(wordlex.WordAt(int64(n)))
		})
		nv, err := nless.Decider().Decide(context.Background(), natSentence)
		if err != nil {
			t.Fatalf("nless: %v (%v)", err, natSentence)
		}
		wv, err := wordlex.Decider().Decide(context.Background(), lexSentence)
		if err != nil {
			t.Fatalf("wordlex: %v (%v)", err, lexSentence)
		}
		if nv != wv {
			t.Fatalf("isomorphic domains disagree on %v: nless=%v wordlex=%v",
				shape, nv, wv)
		}
	}
}

// randOrderSentence generates a sentence over <, =, variables, and small
// abstract constant placeholders Const("#k"), filled in per domain.
func randOrderSentence(rng *rand.Rand, depth int) *logic.Formula {
	vars := []string{"x", "y"}
	term := func() logic.Term {
		if rng.Intn(2) == 0 {
			return logic.Var(vars[rng.Intn(2)])
		}
		return logic.Const("#" + strconv.Itoa(rng.Intn(6)))
	}
	var rec func(d int) *logic.Formula
	rec = func(d int) *logic.Formula {
		atom := func() *logic.Formula {
			if rng.Intn(2) == 0 {
				return logic.Atom(presburger.PredLt, term(), term())
			}
			return logic.Eq(term(), term())
		}
		if d == 0 {
			return atom()
		}
		switch rng.Intn(5) {
		case 0:
			return atom()
		case 1:
			return logic.Not(rec(d - 1))
		case 2:
			return logic.And(rec(d-1), rec(d-1))
		case 3:
			return logic.Or(rec(d-1), rec(d-1))
		default:
			return logic.Implies(rec(d-1), rec(d-1))
		}
	}
	body := rec(depth)
	for i := len(vars) - 1; i >= 0; i-- {
		if rng.Intn(2) == 0 {
			body = logic.Exists(vars[i], body)
		} else {
			body = logic.Forall(vars[i], body)
		}
	}
	return body
}

// instantiate replaces #k placeholders using the supplied constant builder.
func instantiate(f *logic.Formula, build func(int) logic.Term) *logic.Formula {
	return f.Map(func(g *logic.Formula) *logic.Formula {
		if g.Kind != logic.FAtom {
			return g
		}
		args := make([]logic.Term, len(g.Args))
		for i, tm := range g.Args {
			if tm.Kind == logic.TConst && len(tm.Name) > 1 && tm.Name[0] == '#' {
				n, _ := strconv.Atoi(tm.Name[1:])
				args[i] = build(n)
			} else {
				args[i] = tm
			}
		}
		return logic.Atom(g.Pred, args...)
	})
}
