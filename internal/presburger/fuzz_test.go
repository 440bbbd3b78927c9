package presburger

import (
	"context"
	"testing"

	"repro/internal/logic"
	"repro/internal/parser"
)

// presburgerSyntax is the presburger domain's parser configuration.
var presburgerSyntax = parser.Options{Functions: map[string]bool{
	FuncAdd: true, FuncSub: true, FuncMul: true, FuncNeg: true,
}}

// FuzzDecide: for any formula the parser accepts, Cooper's elimination
// under a small size guard ends without a panic and leaves no quantifier,
// and the formula's universal closure and its negation are never decided
// with the same truth value. The seeds are the golden corpus, the bench
// table's E15 and Cooper QE sentences, and a modulus past 2^63.
func FuzzDecide(f *testing.F) {
	for _, g := range goldenCorpus() {
		f.Add(g.String())
	}
	for _, src := range []string{
		"forall x. (exists y. lt(x, y))",
		"forall x. (dvd(2, x) | dvd(2, add(x, 1)))",
		"exists x. (exists y. (add(x, y) = 9 & lt(x, y)))",
		"exists x. lt(x, 20)",
		"exists x. (exists y. (lt(x, y) & lt(y, 20)))",
		"exists x. (exists y. (lt(x, y) & exists z. (lt(y, z) & lt(z, 20))))",
		"dvd(9223372036854775808, x)",
	} {
		f.Add(src)
	}
	e := Eliminator{MaxNodes: 20_000}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := parser.ParseWith(src, presburgerSyntax)
		if err != nil {
			return
		}
		if out, err := e.Eliminate(context.Background(), g); err == nil && !out.QuantifierFree() {
			t.Fatalf("Eliminate(%v) left a quantifier: %v", g, out)
		}
		s := logic.ForallAll(g.FreeVars(), g)
		v, err := e.Decide(context.Background(), s)
		if err != nil {
			return
		}
		if nv, err := e.Decide(context.Background(), logic.Not(s)); err == nil && nv == v {
			t.Fatalf("Decide(%v) and Decide of its negation are both %v", s, v)
		}
	})
}
