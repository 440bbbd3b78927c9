package finrep_test

import (
	"context"
	"fmt"

	"repro/internal/domain"
	"repro/internal/finrep"
	"repro/internal/logic"
	"repro/internal/presburger"
)

// A constraint database answers membership in an infinite relation it can
// never list (§1.2 of the paper).
func ExampleDatabase_Member() {
	db := finrep.NewDatabase(presburger.Domain{}, presburger.Decider(), presburger.Eliminator{})
	even, _ := finrep.NewRelation([]string{"x"},
		logic.Atom(presburger.PredDvd, logic.Const("2"), logic.Var("x")))
	db.Define("Even", even)

	in, _ := db.Member(context.Background(), logic.Atom("Even", logic.Var("x")),
		map[string]domain.Value{"x": domain.Int(42)})
	out, _ := db.Member(context.Background(), logic.Atom("Even", logic.Var("x")),
		map[string]domain.Value{"x": domain.Int(41)})
	fmt.Println(in, out)
	// Output: true false
}

// Finiteness of a query over represented relations is decided by the
// Theorem 2.5 criterion.
func ExampleDatabase_Finite() {
	db := finrep.NewDatabase(presburger.Domain{}, presburger.Decider(), presburger.Eliminator{})
	even, _ := finrep.NewRelation([]string{"x"},
		logic.Atom(presburger.PredDvd, logic.Const("2"), logic.Var("x")))
	db.Define("Even", even)

	bounded := logic.And(
		logic.Atom("Even", logic.Var("x")),
		logic.Atom(presburger.PredLt, logic.Var("x"), logic.Const("10")))
	f1, _ := db.Finite(context.Background(), bounded)
	f2, _ := db.Finite(context.Background(), logic.Atom("Even", logic.Var("x")))
	fmt.Println(f1, f2)
	// Output: true false
}
