// Presburger: quantifier elimination as a query engine. A tiny shift-
// scheduling database is stored over ℕ with +, <, and divisibility; Cooper's
// algorithm both decides pure sentences and, through the §1.1 enumeration
// algorithm, computes the finite answers of mixed database/arithmetic
// queries. The successor domain N' (Section 2.2) answers the same kind of
// question without any order at all.
package main

import (
	"context"
	"fmt"
	"log"

	finq "repro"
)

func main() {
	d := finq.MustLookup("presburger")

	// Shift(start): shifts start at these hours.
	st := finq.NewState(finq.MustScheme(map[string]int{"Shift": 1}))
	for _, h := range []int64{6, 14, 22} {
		if err := st.Insert("Shift", finq.Nat(h)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Print(st)

	// Pure sentences, decided by Cooper's elimination.
	for _, src := range []string{
		"forall x. (dvd(2, x) | dvd(2, add(x, 1)))",    // parity
		"exists x. (lt(6, x) & lt(x, 14) & dvd(8, x))", // a multiple of 8 strictly between
		"forall x. (exists y. (lt(x, y) & dvd(8, y)))", // unbounded multiples of 8
	} {
		f, err := d.Parse(src)
		if err != nil {
			log.Fatal(err)
		}
		v, err := finq.Decide(context.Background(), d, f)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n  = %v\n", src, v)
	}

	// Quantifier elimination with a free variable.
	f, err := d.Parse("exists x. (lt(y, x) & lt(x, add(y, 3)))")
	if err != nil {
		log.Fatal(err)
	}
	g, err := finq.Eliminate(context.Background(), d, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQE: %v\n  ≡ %v\n", f, g)

	// A mixed query answered by enumeration: hours less than 3 before some
	// shift start ("arrive early").
	early, err := d.Parse("exists y. (Shift(y) & lt(x, y) & lt(y, add(x, 4)))")
	if err != nil {
		log.Fatal(err)
	}
	v, err := finq.RelativeSafety(d, st, early)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nearly-arrival query: relative safety %v\n", v)
	res, err := finq.Eval(context.Background(), finq.Request{Domain: d.Name, State: st, Formula: early, Mode: finq.ModeEnumerate})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("answer: %v (complete=%v)\n", res.Answer.Rows.Tuples(), res.Answer.Complete)

	// The successor domain answers anchored queries without order
	// (Section 2.2): predecessors of shift starts.
	ns := finq.MustLookup("nsucc")
	pred, err := ns.Parse("exists y. (Shift(y) & s(x) = y)")
	if err != nil {
		log.Fatal(err)
	}
	v, err = finq.RelativeSafety(ns, st, pred)
	if err != nil {
		log.Fatal(err)
	}
	res, err = finq.Eval(context.Background(), finq.Request{Domain: ns.Name, State: st, Formula: pred, Mode: finq.ModeEnumerate})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nN' (no order): hour-before-shift query: safety %v, answer %v\n",
		v, res.Answer.Rows.Tuples())
}
