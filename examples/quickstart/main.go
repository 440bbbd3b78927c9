// Quickstart: the paper's introductory father/son database over the
// pure-equality domain. It builds the one-relation scheme, asks the
// introduction's two queries M(x) ("fathers of more than one son") and
// G(x, z) ("grandfather/grandson pairs"), shows that their disjunction is
// unsafe exactly under the footnote's condition, and runs the safe-range
// analysis.
package main

import (
	"context"
	"fmt"
	"log"

	finq "repro"
)

func main() {
	d := finq.MustLookup("eq")
	scheme := finq.MustScheme(map[string]int{"F": 2})
	st := finq.NewState(scheme)
	for _, pair := range [][2]string{
		{"adam", "abel"}, {"adam", "cain"}, {"cain", "enoch"},
	} {
		if err := st.Insert("F", finq.Word(pair[0]), finq.Word(pair[1])); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("state:")
	fmt.Print(st)

	// M(x): x has more than one son.
	m, err := d.Parse("exists y. (exists z. (y != z & F(x, y) & F(x, z)))")
	if err != nil {
		log.Fatal(err)
	}
	show(d, st, "M(x) — more than one son", m)

	// G(x, z): grandfather/grandson.
	g, err := d.Parse("exists y. (F(x, y) & F(y, z))")
	if err != nil {
		log.Fatal(err)
	}
	show(d, st, "G(x, z) — grandfather/grandson", g)

	// The unsafe disjunction of the introduction: M(x) ∨ G(x, z).
	disj, err := d.Parse(
		"(exists y. (exists w. (y != w & F(x, y) & F(x, w)))) | (exists y. (F(x, y) & F(y, z)))")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nM(x) | G(x, z):")
	report := finq.SafeRange(scheme, disj)
	fmt.Printf("  safe-range: %v (unranged %v)\n", report.Safe, report.Unranged)
	v, err := finq.RelativeSafety(d, st, disj)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  relative safety in this state: %v — adam has two sons, so z is loose (footnote 4)\n", v)

	// The obviously unsafe complement.
	neg, err := d.Parse("~F(x, y)")
	if err != nil {
		log.Fatal(err)
	}
	v, err = finq.RelativeSafety(d, st, neg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n~F(x, y): relative safety %v — complements of finite relations are infinite\n", v)
}

func show(d finq.DomainInfo, st *finq.State, title string, f *finq.Formula) {
	fmt.Printf("\n%s:\n  %v\n", title, f)
	report := finq.SafeRange(st.Scheme(), f)
	fmt.Printf("  safe-range: %v\n", report.Safe)
	res, err := finq.Eval(context.Background(), finq.Request{Domain: d.Name, State: st, Formula: f})
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Answer.Rows.Tuples() {
		fmt.Printf("  answer %v\n", row)
	}
}
