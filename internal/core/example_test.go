package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/presburger"
	"repro/internal/turing"
)

// The finitization of Theorem 2.2 makes any query finite; a finite query is
// equivalent to its finitization.
func ExampleFinitize() {
	unsafe := parser.MustParse("~R(x)")
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	_ = st.Insert("R", domain.Int(7))

	before, _ := core.RelativeSafetyPresburger(context.Background(), presburger.Domain{}, st, unsafe)
	after, _ := core.RelativeSafetyPresburger(context.Background(), presburger.Domain{}, st, core.Finitize(unsafe))
	fmt.Println(before, after)
	// Output: false true
}

// Safe-range analysis certifies finiteness syntactically — and is
// necessarily incomplete.
func ExampleSafeRange() {
	scheme := db.MustScheme(map[string]int{"F": 2})
	fmt.Println(core.SafeRange(scheme, parser.MustParse("exists y. F(x, y)")).Safe)
	fmt.Println(core.SafeRange(scheme, parser.MustParse("~F(x, y)")).Safe)
	// Output:
	// true
	// false
}

// The Theorem 3.3 reduction: the query is finite iff the machine halts.
func ExampleHaltingToRelativeSafety() {
	enc := turing.Encode(turing.BusyWork(1))
	f, st, _ := core.HaltingToRelativeSafety(enc, "1")
	v, _ := core.RelativeSafetyTraces(st, f, core.DefaultTracesBudget)
	fmt.Println(v)
	// Output: holds
}

// The Theorem 3.1 sentence certifies totality through the decidable trace
// theory.
func ExampleVerifyTotality() {
	enc := turing.Encode(turing.HaltImmediately())
	candidate := logic.And(
		logic.Atom("T", logic.Var("x")),
		logic.Eq(logic.App("m", logic.Var("x")), logic.Const(enc)),
		logic.Eq(logic.App("w", logic.Var("x")), logic.Const(core.DBConst)))
	ok, _ := core.VerifyTotality(context.Background(), enc, candidate)
	fmt.Println(ok)
	// Output: true
}

// Relative safety over a decidable extension of N< (Theorem 2.5).
func ExampleRelativeSafetyPresburger() {
	st := db.NewState(db.MustScheme(map[string]int{"R": 1}))
	_ = st.Insert("R", domain.Int(3))
	finite, _ := core.RelativeSafetyPresburger(context.Background(), presburger.Domain{}, st,
		logic.Exists("y", logic.And(
			logic.Atom("R", logic.Var("y")),
			logic.Atom(presburger.PredLt, logic.Var("x"), logic.Var("y")))))
	fmt.Println(finite)
	// Output: true
}
