package parser

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// FuzzParse checks that the parser never panics and that successful parses
// round-trip through printing: Parse(String(Parse(s))) must equal
// Parse(s)'s printed form.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"true",
		"P(x)",
		"exists x. (P(x) & ~Q(x, y))",
		"forall x. (x = y -> R(x) | x != z)",
		`P("1&*|") <-> Q(a, f(b))`,
		"((((P(x)))))",
		"x = y & y = z",
		"~~~P(x)",
		"exists x. exists y. exists z. (x = y & y != z)",
		`"unclosed`,
		"P(x",
		"@#$%",
		"",
		"exists . P(x)",
		"P(x)) & Q",
		// A million nested negations: printing such a formula would
		// overflow the stack, so the nesting cap must reject it.
		strings.Repeat("~", 1_000_000) + "R(x)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Parse(input)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		printed := g.String()
		h, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form %q of accepted input %q does not re-parse: %v", printed, input, err)
		}
		if h.String() != printed {
			t.Fatalf("print/parse not stable: %q vs %q", printed, h.String())
		}
	})
}

// FuzzParseTerm checks term parsing stability.
func FuzzParseTerm(f *testing.F) {
	for _, s := range []string{"x", "f(x, y)", `"1&"`, "42", "f(g(h(x)))", "f("} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		tm, err := ParseTerm(input, Options{})
		if err != nil {
			return
		}
		printed := tm.String()
		tm2, err := ParseTerm(printed, Options{})
		if err != nil {
			t.Fatalf("printed term %q does not re-parse: %v", printed, err)
		}
		if !tm2.Equal(tm) && tm2.String() != printed {
			t.Fatalf("term round trip unstable: %v vs %v", tm, tm2)
		}
	})
}

// FuzzNNF checks the normal-form pipeline never panics on parsed input and
// always yields NNF.
func FuzzNNF(f *testing.F) {
	for _, s := range []string{
		"~(P(x) & Q(x))",
		"~(exists x. (P(x) <-> Q(x)))",
		"forall x. ~(x = y -> P(x))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := Parse(input)
		if err != nil {
			return
		}
		n := logic.NNF(g)
		if !logic.IsNNF(n) {
			t.Fatalf("NNF(%v) = %v not in NNF", g, n)
		}
		prefix, matrix := logic.Prenex(g)
		if !matrix.QuantifierFree() {
			t.Fatalf("prenex matrix has quantifiers")
		}
		_ = prefix
	})
}
