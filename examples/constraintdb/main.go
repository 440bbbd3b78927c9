// Constraintdb demonstrates the paper's §1.2 "first way" of living with
// undecidable safety: accept infinite relations, stored as finite
// representations (defining formulas) in the style of Kanellakis, Kuper and
// Revesz. The database can answer membership and facts about infinite
// relations it could never list, decide finiteness of query answers by the
// Theorem 2.5 criterion, and materialize the finite ones.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/domain"
	"repro/internal/finrep"
	"repro/internal/logic"
	"repro/internal/presburger"
)

func main() {
	ctx := context.Background()
	db := finrep.NewDatabase(presburger.Domain{}, presburger.Decider(), presburger.Eliminator{})

	// Even(x) ⟺ 2 | x — an infinite relation, stored as one atom.
	even, err := finrep.NewRelation([]string{"x"},
		logic.Atom(presburger.PredDvd, logic.Const("2"), logic.Var("x")))
	if err != nil {
		log.Fatal(err)
	}
	db.Define("Even", even)

	// Window(lo, hi) ⟺ lo < hi < lo+10 — infinitely many rows, finitely
	// many per lo.
	window, err := finrep.NewRelation([]string{"lo", "hi"}, logic.And(
		logic.Atom(presburger.PredLt, logic.Var("lo"), logic.Var("hi")),
		logic.Atom(presburger.PredLt, logic.Var("hi"),
			logic.App(presburger.FuncAdd, logic.Var("lo"), logic.Const("10")))))
	if err != nil {
		log.Fatal(err)
	}
	db.Define("Window", window)

	fmt.Println("relations: Even(x) ⟺ 2|x   Window(lo,hi) ⟺ lo < hi < lo+10")

	// Membership in an infinite relation.
	for _, n := range []int64{41, 42} {
		in, err := db.Member(ctx, logic.Atom("Even", logic.Var("x")),
			map[string]domain.Value{"x": domain.Int(n)})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Even(%d) = %v\n", n, in)
	}

	// A fact mixing both: every window above an even lo contains an even hi.
	fact := logic.ForallAll([]string{"lo"}, logic.Implies(
		logic.Atom("Even", logic.Var("lo")),
		logic.Exists("hi", logic.And(
			logic.Atom("Window", logic.Var("lo"), logic.Var("hi")),
			logic.Atom("Even", logic.Var("hi"))))))
	v, err := db.Fact(ctx, fact)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("every even lo has an even hi in its window:", v)

	// Finiteness of query answers is decided, not guessed.
	q1 := logic.Atom("Even", logic.Var("x"))
	q2 := logic.And(logic.Atom("Even", logic.Var("x")),
		logic.Exists("hi", logic.Atom("Window", logic.Var("x"), logic.Var("hi"))),
		logic.Atom(presburger.PredLt, logic.Var("x"), logic.Const("9")))
	for name, q := range map[string]*logic.Formula{"Even(x)": q1, "even x < 9 with a window": q2} {
		fin, err := db.Finite(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("finite(%s) = %v\n", name, fin)
	}

	// Finite answers materialize; infinite ones are refused by design.
	rows, err := db.Materialize(ctx, q2, presburger.Domain{}, 10000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("materialized: ")
	for _, r := range rows {
		fmt.Printf("%v ", r["x"])
	}
	fmt.Println()
	if _, err := db.Materialize(ctx, q1, presburger.Domain{}, 100); err != nil {
		fmt.Println("materializing Even(x):", err)
	}

	// The representation of an answer is itself a stored relation: the los
	// whose window contains an even hi, as a quantifier-free formula.
	rep, err := db.Representation(ctx, logic.Exists("hi", logic.And(
		logic.Atom("Window", logic.Var("lo"), logic.Var("hi")),
		logic.Atom("Even", logic.Var("hi")))))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("representation of 'lo with an even hi in window':")
	fmt.Println("  ", rep.Def)
}
