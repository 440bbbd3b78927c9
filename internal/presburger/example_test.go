package presburger_test

import (
	"context"
	"fmt"

	"repro/internal/logic"
	"repro/internal/presburger"
)

// Cooper's algorithm decides Presburger sentences over ℕ.
func ExampleEliminator_Decide() {
	// Every natural number is even or odd.
	x := logic.Var("x")
	f := logic.Forall("x", logic.Or(
		logic.Atom(presburger.PredDvd, logic.Const("2"), x),
		logic.Atom(presburger.PredDvd, logic.Const("2"),
			logic.App(presburger.FuncAdd, x, logic.Const("1")))))
	v, _ := presburger.Eliminator{}.Decide(context.Background(), f)
	fmt.Println(v)
	// Output: true
}

// Equivalent is the engine behind the Theorem 2.5 relative-safety decider.
func ExampleEliminator_Equivalent() {
	x := logic.Var("x")
	lt3 := logic.Atom(presburger.PredLt, x, logic.Const("3"))
	le2 := logic.Atom(presburger.PredLe, x, logic.Const("2"))
	eq, _ := presburger.Eliminator{}.Equivalent(context.Background(), lt3, le2)
	fmt.Println(eq)
	// Output: true
}
