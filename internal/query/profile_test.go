package query

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/logic"
)

// familyState is the F relation used across the profile tests.
func familyState(t *testing.T) *db.State {
	t.Helper()
	st := db.NewState(db.MustScheme(map[string]int{"F": 2}))
	for _, pair := range [][2]string{{"adam", "abel"}, {"adam", "cain"}, {"eve", "abel"}, {"seth", "enos"}} {
		if err := st.Insert("F", domain.Word(pair[0]), domain.Word(pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestProfileMatchesEvalActive: the profiled evaluator returns exactly the
// rows of EvalActiveCtx, and the profile's accounting is internally
// consistent on a nested-quantifier query: the root's True count equals
// the answer cardinality-wise (one true evaluation per emitted row), each
// node's True never exceeds its Evals, and quantifier nodes record the
// active-domain range.
func TestProfileMatchesEvalActive(t *testing.T) {
	st := familyState(t)
	dom := eqdom.Domain{}
	// ∃y F(x,y) ∧ ∀z (F(z,x) → ¬(z = x)): nested ∃/∀ with connectives.
	f := logic.And(
		logic.Exists("y", logic.Atom("F", logic.Var("x"), logic.Var("y"))),
		logic.Forall("z", logic.Implies(
			logic.Atom("F", logic.Var("z"), logic.Var("x")),
			logic.Not(logic.Eq(logic.Var("z"), logic.Var("x"))))),
	)
	plain, err := EvalActiveCtx(context.Background(), dom, st, f)
	if err != nil {
		t.Fatal(err)
	}
	ans, prof, err := EvalActiveProfiledCtx(context.Background(), dom, st, f)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rowsKey(t, ans), rowsKey(t, plain); got != want {
		t.Fatalf("profiled rows differ from EvalActiveCtx:\n%s\n%s", got, want)
	}
	if prof.Rows != ans.Rows.Len() {
		t.Errorf("profile rows %d, answer has %d", prof.Rows, ans.Rows.Len())
	}
	// Distinct-free-variable query over a set-semantics relation: every
	// true root evaluation emits one distinct row.
	if prof.Root.True != int64(ans.Rows.Len()) {
		t.Errorf("root true count %d, want %d (one per answer row)", prof.Root.True, ans.Rows.Len())
	}
	if prof.Root.Evals != prof.Assignments {
		t.Errorf("root evals %d, want one per assignment (%d)", prof.Root.Evals, prof.Assignments)
	}
	wantAssign := int64(prof.ActiveDomain) // one free variable
	if prof.Assignments != wantAssign {
		t.Errorf("assignments %d, want |adom| = %d", prof.Assignments, wantAssign)
	}
	var walk func(n *ProfileNode)
	walk = func(n *ProfileNode) {
		if n.True > n.Evals {
			t.Errorf("node %s: true %d > evals %d", n.Op, n.True, n.Evals)
		}
		if n.WallNS < 0 {
			t.Errorf("node %s: negative wall time", n.Op)
		}
		if strings.HasPrefix(n.Op, "∃") || strings.HasPrefix(n.Op, "∀") {
			if n.Range != prof.ActiveDomain {
				t.Errorf("quantifier %s range %d, want %d", n.Op, n.Range, prof.ActiveDomain)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(prof.Root)
	// The ∧ root has two children; short-circuiting means the second
	// conjunct is evaluated at most as often as the first comes out true.
	if len(prof.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(prof.Root.Children))
	}
	first, second := prof.Root.Children[0], prof.Root.Children[1]
	if second.Evals != first.True {
		t.Errorf("second conjunct evaluated %d times, want %d (short-circuit on first's true count)", second.Evals, first.True)
	}
}

// TestProfileRenderings: Text carries the header and per-node rows; JSON
// round-trips.
func TestProfileRenderings(t *testing.T) {
	st := familyState(t)
	f := logic.Exists("y", logic.Atom("F", logic.Var("x"), logic.Var("y")))
	_, prof, err := EvalActiveProfiledCtx(context.Background(), eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatal(err)
	}
	text := prof.Text()
	for _, want := range []string{"query:", "active domain", "∃y", "evals=", "true=", "range="} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	var back Profile
	if err := json.Unmarshal(prof.JSON(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Rows != prof.Rows || back.Root == nil || back.Root.Op != prof.Root.Op {
		t.Errorf("JSON round-trip lost data: %+v", back)
	}
}

// TestProfileSentence: a sentence (no free variables) profiles with one
// assignment and a root count reflecting its truth value.
func TestProfileSentence(t *testing.T) {
	st := familyState(t)
	f := logic.Exists("x", logic.Exists("y", logic.Atom("F", logic.Var("x"), logic.Var("y"))))
	ans, prof, err := EvalActiveProfiledCtx(context.Background(), eqdom.Domain{}, st, f)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Assignments != 1 {
		t.Errorf("sentence assignments %d, want 1", prof.Assignments)
	}
	if ans.Rows.Len() != 1 || prof.Root.True != 1 {
		t.Errorf("true sentence: rows=%d root.True=%d, want 1 and 1", ans.Rows.Len(), prof.Root.True)
	}
}
