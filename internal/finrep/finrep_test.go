package finrep

import (
	"context"
	"strings"
	"testing"

	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/presburger"
)

func lt(a, b logic.Term) *logic.Formula { return logic.Atom(presburger.PredLt, a, b) }
func num(s string) logic.Term           { return logic.Const(s) }

// presburgerDB builds a constraint database over ℕ with two represented
// relations: Even(x) — infinite — and Small(x) ⟺ x < 5 — finite.
func presburgerDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase(presburger.Domain{}, presburger.Decider(), presburger.Eliminator{})
	even, err := NewRelation([]string{"x"},
		logic.Atom(presburger.PredDvd, num("2"), logic.Var("x")))
	if err != nil {
		t.Fatal(err)
	}
	db.Define("Even", even)
	small, err := NewRelation([]string{"x"}, lt(logic.Var("x"), num("5")))
	if err != nil {
		t.Fatal(err)
	}
	db.Define("Small", small)
	interval, err := NewRelation([]string{"lo", "hi"},
		logic.And(lt(logic.Var("lo"), logic.Var("hi")), lt(logic.Var("hi"), num("100"))))
	if err != nil {
		t.Fatal(err)
	}
	db.Define("Interval", interval)
	return db
}

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation([]string{"x", "x"}, logic.True()); err == nil {
		t.Errorf("duplicate columns accepted")
	}
	if _, err := NewRelation([]string{"x"}, lt(logic.Var("y"), num("3"))); err == nil {
		t.Errorf("stray free variable accepted")
	}
}

func TestMember(t *testing.T) {
	db := presburgerDB(t)
	f := logic.Atom("Even", logic.Var("x"))
	cases := []struct {
		v    int64
		want bool
	}{{0, true}, {1, false}, {2, true}, {17, false}, {40, true}}
	for _, c := range cases {
		got, err := db.Member(context.Background(), f, map[string]domain.Value{"x": domain.Int(c.v)})
		if err != nil {
			t.Fatalf("Member: %v", err)
		}
		if got != c.want {
			t.Errorf("Even(%d) = %v, want %v", c.v, got, c.want)
		}
	}
	// Missing column.
	if _, err := db.Member(context.Background(), f, map[string]domain.Value{}); err == nil {
		t.Errorf("missing column accepted")
	}
}

func TestFact(t *testing.T) {
	db := presburgerDB(t)
	// ∃x (Even(x) ∧ Small(x)) — yes (0, 2, 4).
	f := logic.Exists("x", logic.And(
		logic.Atom("Even", logic.Var("x")), logic.Atom("Small", logic.Var("x"))))
	v, err := db.Fact(context.Background(), f)
	if err != nil || !v {
		t.Errorf("fact 1: %v %v", v, err)
	}
	// ∀x (Small(x) → Even(x)) — no (1 < 5 is odd).
	g := logic.Forall("x", logic.Implies(
		logic.Atom("Small", logic.Var("x")), logic.Atom("Even", logic.Var("x"))))
	v, err = db.Fact(context.Background(), g)
	if err != nil || v {
		t.Errorf("fact 2: %v %v", v, err)
	}
	// Free variables are rejected.
	if _, err := db.Fact(context.Background(), logic.Atom("Even", logic.Var("x"))); err == nil {
		t.Errorf("open fact accepted")
	}
}

func TestFinite(t *testing.T) {
	db := presburgerDB(t)
	cases := []struct {
		name string
		f    *logic.Formula
		want bool
	}{
		{"Even", logic.Atom("Even", logic.Var("x")), false},
		{"Small", logic.Atom("Small", logic.Var("x")), true},
		{"Even∧Small", logic.And(
			logic.Atom("Even", logic.Var("x")), logic.Atom("Small", logic.Var("x"))), true},
		{"Even∨Small", logic.Or(
			logic.Atom("Even", logic.Var("x")), logic.Atom("Small", logic.Var("x"))), false},
		{"¬Small", logic.Not(logic.Atom("Small", logic.Var("x"))), false},
		{"Interval", logic.Atom("Interval", logic.Var("lo"), logic.Var("hi")), true},
		{"∃hi Interval", logic.Exists("hi",
			logic.Atom("Interval", logic.Var("lo"), logic.Var("hi"))), true},
	}
	for _, c := range cases {
		got, err := db.Finite(context.Background(), c.f)
		if err != nil {
			t.Fatalf("Finite(%s): %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("Finite(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRepresentation(t *testing.T) {
	db := presburgerDB(t)
	// The answer to "Even ∧ Small" is representable quantifier-free, and
	// membership through the representation matches direct membership.
	f := logic.And(logic.Atom("Even", logic.Var("x")), logic.Atom("Small", logic.Var("x")))
	rep, err := db.Representation(context.Background(), f)
	if err != nil {
		t.Fatalf("Representation: %v", err)
	}
	if !rep.Def.QuantifierFree() {
		t.Fatalf("representation not quantifier-free: %v", rep.Def)
	}
	for v := int64(0); v < 10; v++ {
		direct, err := db.Member(context.Background(), f, map[string]domain.Value{"x": domain.Int(v)})
		if err != nil {
			t.Fatal(err)
		}
		viaRep, err := db.Member(context.Background(), rep.Def, map[string]domain.Value{"x": domain.Int(v)})
		if err != nil {
			t.Fatal(err)
		}
		if direct != viaRep {
			t.Errorf("x=%d: direct %v, representation %v", v, direct, viaRep)
		}
	}
	// Quantified queries also represent: the lower endpoints of intervals.
	g := logic.Exists("hi", logic.Atom("Interval", logic.Var("lo"), logic.Var("hi")))
	rep, err = db.Representation(context.Background(), g)
	if err != nil {
		t.Fatalf("Representation: %v", err)
	}
	if !rep.Def.QuantifierFree() || rep.Def.HasFreeVar("hi") {
		t.Errorf("bad representation: %v", rep.Def)
	}
}

func TestUnfoldRenamingNoCapture(t *testing.T) {
	// A relation defined with columns (a, b) queried with swapped and
	// overlapping variable names must not capture.
	db := NewDatabase(presburger.Domain{}, presburger.Decider(), presburger.Eliminator{})
	rel, err := NewRelation([]string{"a", "b"}, lt(logic.Var("a"), logic.Var("b")))
	if err != nil {
		t.Fatal(err)
	}
	db.Define("Lt", rel)
	// Lt(b, a): must unfold to b < a, not a < b.
	f := logic.Atom("Lt", logic.Var("b"), logic.Var("a"))
	yes, err := db.Member(context.Background(), f, map[string]domain.Value{"a": domain.Int(5), "b": domain.Int(2)})
	if err != nil || !yes {
		t.Errorf("Lt(2,5) via swapped columns: %v %v", yes, err)
	}
	no, err := db.Member(context.Background(), f, map[string]domain.Value{"a": domain.Int(2), "b": domain.Int(5)})
	if err != nil || no {
		t.Errorf("Lt(5,2) via swapped columns should fail: %v %v", no, err)
	}
	// Lt(x, x) is empty.
	g := logic.Atom("Lt", logic.Var("x"), logic.Var("x"))
	v, err := db.Fact(context.Background(), logic.Exists("x", g))
	if err != nil || v {
		t.Errorf("Lt(x,x) nonempty: %v %v", v, err)
	}
}

func TestMaterialize(t *testing.T) {
	db := presburgerDB(t)
	f := logic.And(logic.Atom("Even", logic.Var("x")), logic.Atom("Small", logic.Var("x")))
	rows, err := db.Materialize(context.Background(), f, presburger.Domain{}, 1000)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (0, 2, 4)", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r["x"].Key()] = true
	}
	for _, want := range []string{"0", "2", "4"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
	// Infinite answers refuse to materialize.
	if _, err := db.Materialize(context.Background(), logic.Atom("Even", logic.Var("x")), presburger.Domain{}, 100); err == nil {
		t.Errorf("infinite materialization accepted")
	}
}

func TestUnfoldArityMismatch(t *testing.T) {
	db := presburgerDB(t)
	if _, err := db.Unfold(logic.Atom("Even", logic.Var("x"), logic.Var("y"))); err == nil {
		t.Errorf("arity mismatch accepted")
	}
}

func TestRelationLookup(t *testing.T) {
	db := presburgerDB(t)
	if _, ok := db.Relation("Even"); !ok {
		t.Errorf("Even missing")
	}
	if _, ok := db.Relation("Odd"); ok {
		t.Errorf("Odd present")
	}
}

func TestMaterializeTwoColumns(t *testing.T) {
	// Exercises the pairing enumeration: small two-column finite answer.
	db := presburgerDB(t)
	// Interval pairs with hi < 3: (0,1), (0,2), (1,2).
	f := logic.And(
		logic.Atom("Interval", logic.Var("lo"), logic.Var("hi")),
		lt(logic.Var("hi"), num("3")))
	rows, err := db.Materialize(context.Background(), f, presburger.Domain{}, 10000)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3: %v", len(rows), rows)
	}
	want := map[string]bool{"0,1": true, "0,2": true, "1,2": true}
	for _, r := range rows {
		key := r["lo"].Key() + "," + r["hi"].Key()
		if !want[key] {
			t.Errorf("unexpected row %s", key)
		}
	}
}

func TestRepresentationErrorPropagation(t *testing.T) {
	db := presburgerDB(t)
	// Unknown function inside the query surfaces as an error.
	bad := logic.Eq(logic.App("f", logic.Var("x")), logic.Var("x"))
	if _, err := db.Representation(context.Background(), logic.Exists("x", bad)); err == nil {
		t.Errorf("bad term accepted")
	}
	if _, err := db.Finite(context.Background(), bad); err == nil {
		t.Errorf("Finite on bad term accepted")
	}
	if _, err := db.Materialize(context.Background(), bad, presburger.Domain{}, 10); err == nil {
		t.Errorf("Materialize on bad term accepted")
	}
}

func TestFiniteBooleanQuery(t *testing.T) {
	db := presburgerDB(t)
	fin, err := db.Finite(context.Background(), logic.Exists("x", logic.Atom("Even", logic.Var("x"))))
	if err != nil || !fin {
		t.Errorf("boolean queries are finite: %v %v", fin, err)
	}
}

// TestMaterializeEdges: rows come in the order the §1.1 loop finds them, a
// boolean query materializes to one empty row when it holds and to none
// when it fails, and a probe budget too small to reach an outstanding row
// is an error that keeps the rows found.
func TestMaterializeEdges(t *testing.T) {
	db := presburgerDB(t)
	ctx := context.Background()
	// Candidates (hi, lo, x) go by their largest component first.
	lo, hi, x := logic.Var("lo"), logic.Var("hi"), logic.Var("x")
	rows, err := db.Materialize(ctx, logic.And(logic.Atom("Interval", lo, x), lt(x, num("3")),
		logic.Atom("Small", hi), lt(hi, num("2"))), presburger.Domain{}, 100)
	var got []string
	for _, r := range rows {
		got = append(got, r["hi"].Key()+r["lo"].Key()+r["x"].Key())
	}
	if want := "001 101 002 012 102 112"; strings.Join(got, " ") != want || err != nil {
		t.Errorf("rows %v, %v; want %s", got, err, want)
	}
	evenSmall := logic.And(logic.Atom("Even", logic.Var("x")), logic.Atom("Small", logic.Var("x")))
	rows, err = db.Materialize(ctx, logic.Exists("x", evenSmall), presburger.Domain{}, 10)
	if err != nil || len(rows) != 1 || len(rows[0]) != 0 {
		t.Errorf("true fact: %v, %v; want one empty row", rows, err)
	}
	rows, err = db.Materialize(ctx, logic.Exists("x", logic.And(evenSmall, lt(num("7"), logic.Var("x")))), presburger.Domain{}, 10)
	if err != nil || len(rows) != 0 {
		t.Errorf("false fact: %v, %v; want no rows", rows, err)
	}
	// 0 is a row; the next, 2, lies past the two candidates 0 and 1.
	rows, err = db.Materialize(ctx, evenSmall, presburger.Domain{}, 2)
	if err == nil || len(rows) != 1 || rows[0]["x"].Key() != "0" {
		t.Errorf("probe 2: %v, %v; want row 0 and the probe-budget error", rows, err)
	}
	// Rows that fill the budget end it without an error, rows outstanding
	// or not: Small(x) holds of 0 to 4.
	rows, err = db.Materialize(ctx, logic.Atom("Small", logic.Var("x")), presburger.Domain{}, 2)
	if err != nil || len(rows) != 2 || rows[0]["x"].Key() != "0" || rows[1]["x"].Key() != "1" {
		t.Errorf("Small, probe 2: %v, %v; want rows 0 and 1", rows, err)
	}
}
