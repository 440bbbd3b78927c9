// Computationdb is the paper's motivating application for the trace domain
// T (Conclusion: "databases of computational experiments"). A database
// state holds an input word in the constant c; queries over T ask for the
// traces — stored computations — of machines on that input via the
// predicate P. The example walks through both negative results:
//
//   - Theorem 3.3: deciding whether P(M, c, x) is finite in a state is the
//     halting problem; the library's semi-decider returns a verdict with a
//     certificate when it can, and "unknown" when the budget runs out;
//   - Theorem 3.1: the trace theory's decision procedure (Corollary A.4)
//     verifies equivalence sentences, certifying machines total from
//     candidate formulas — and any effective class of finite candidates
//     provably misses some finite query.
package main

import (
	"context"
	"fmt"
	"log"

	finq "repro"
	"repro/internal/turing"
)

func main() {
	d := finq.MustLookup("traces")

	busy := turing.Encode(turing.BusyWork(2))
	loop := turing.Encode(turing.LoopForever())

	// --- Theorem 3.3: relative safety is the halting problem. ---
	fmt.Println("Theorem 3.3 — relative safety over T:")
	for _, c := range []struct {
		name, machine, input string
	}{
		{"busy (halts)", busy, "1&"},
		{"loop (diverges)", loop, "1&"},
	} {
		query, st, err := finq.HaltingToRelativeSafety(c.machine, c.input)
		if err != nil {
			log.Fatal(err)
		}
		v, err := finq.RelativeSafety(d, st, query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s P(M, c, x) with c = %q: %v\n", c.name, c.input, v)
	}

	// --- Answering a finite trace query. ---
	fmt.Println("\nThe stored computations of the busy machine on \"1&\":")
	m, _ := turing.Decode(busy)
	for i, tr := range turing.Traces(m, busy, "1&", 10) {
		fmt.Printf("  trace %d: %s\n", i, tr)
	}

	// The decision procedure confirms there are exactly three: no fourth
	// distinct trace exists.
	all := turing.Traces(m, busy, "1&", 10)
	src := fmt.Sprintf(`exists x. (P(%q, "1&", x) & x != %q & x != %q & x != %q)`,
		busy, all[0], all[1], all[2])
	f, err := d.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	fourth, err := finq.Decide(context.Background(), d, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  a fourth distinct trace exists: %v (decided by the Reach-theory QE)\n", fourth)

	// --- Theorem 3.1: totality verification. ---
	fmt.Println("\nTheorem 3.1 — equivalence sentences over the decidable theory of T:")
	candidate, err := d.ParseWithConstants(
		fmt.Sprintf(`T(x) & m(x) = %q & w(x) = c`, busy), "c")
	if err != nil {
		log.Fatal(err)
	}
	ok, err := finq.VerifyTotality(context.Background(), busy, candidate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  busy vs its own characterization: %v — busy is certified total\n", ok)
	ok, err = finq.VerifyTotality(context.Background(), loop, candidate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  loop vs busy's characterization:  %v — no sound candidate certifies loop\n", ok)
	fmt.Println("\nTheorem 3.1 proves no recursive family of finite candidates can certify")
	fmt.Println("every total machine: totality is not recursively enumerable, yet a")
	fmt.Println("complete effective syntax would enumerate it through these sentences.")
}
