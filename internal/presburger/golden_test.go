package presburger

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/logic"
)

// goldenPath holds the engine's answers on the golden corpus: every
// Eliminate output or error and every Decide verdict, per mode. The file
// was written by goldenLines on the big.Int-map engine that preceded the
// int64-first terms, and pins Cooper's output byte for byte: a change to
// the engine's arithmetic or its data structures must not change what it
// prints, so the file is not regenerated to make such a change pass.
const goldenPath = "testdata/eliminate.golden"

// goldenMaxNodes is the size guard of every golden run; the corpus has
// formulas that end on it.
const goldenMaxNodes = 20_000

// goldenInline is the longest output the file holds verbatim; a longer
// one is pinned by its length and a SHA-256 prefix, to keep the file
// small.
const goldenInline = 160

var goldenModes = []struct {
	name string
	e    Eliminator
}{
	{"nat", Eliminator{MaxNodes: goldenMaxNodes}},
	{"int", Eliminator{Integers: true, MaxNodes: goldenMaxNodes}},
	{"nodedup", Eliminator{NoBoundDedup: true, MaxNodes: goldenMaxNodes}},
}

// Numerals at the edges of the machine integers: around 2^31, 2^62 and
// 2^63, where checked int64 arithmetic must hand over to math/big.
var goldenBigConsts = []string{
	"2147483647", "2147483648", "-2147483648", "-2147483649",
	"4611686018427387903", "4611686018427387904", "-4611686018427387904",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
}

// Coefficients whose products, once Cooper scales an atom by its lcm
// factor, pass 2^62 and 2^63.
var goldenBigCoeffs = []string{"3037000500", "-3037000499", "2147483648", "4611686018427387904"}

// goldenCorpus is the seeded corpus: 250 formulas over x, y and z with
// nested ∃ and ∀ under the connectives.
func goldenCorpus() []*logic.Formula {
	rng := rand.New(rand.NewSource(2026))
	vars := []string{"x", "y", "z"}
	term := func() logic.Term {
		var parts []logic.Term
		for _, v := range vars {
			if rng.Intn(2) == 0 {
				continue
			}
			var k logic.Term
			switch c := rng.Intn(7) - 3; {
			case rng.Intn(40) == 0:
				k = logic.Const(goldenBigCoeffs[rng.Intn(len(goldenBigCoeffs))])
			case c == 0 || c == 1:
				parts = append(parts, logic.Var(v))
				continue
			default:
				k = num(int64(c))
			}
			parts = append(parts, logic.App(FuncMul, k, logic.Var(v)))
		}
		c := num(int64(rng.Intn(21) - 10))
		if rng.Intn(12) == 0 {
			c = logic.Const(goldenBigConsts[rng.Intn(len(goldenBigConsts))])
		}
		out := c
		for i := len(parts) - 1; i >= 0; i-- {
			if rng.Intn(4) == 0 {
				out = logic.App(FuncSub, parts[i], out)
			} else {
				out = add(parts[i], out)
			}
		}
		return out
	}
	atom := func() *logic.Formula {
		a, b := term(), term()
		switch rng.Intn(6) {
		case 0:
			return lt(a, b)
		case 1:
			return logic.Atom(PredLe, a, b)
		case 2:
			return logic.Atom(PredGt, a, b)
		case 3:
			return logic.Eq(a, b)
		case 4:
			return logic.Atom(PredGe, a, b)
		}
		k := num(int64(2 + rng.Intn(5)))
		if rng.Intn(20) == 0 {
			k = logic.Const([]string{"2147483648", "9223372036854775808"}[rng.Intn(2)])
		}
		return logic.Atom(PredDvd, k, a)
	}
	var gen func(depth int) *logic.Formula
	gen = func(depth int) *logic.Formula {
		if depth == 0 {
			return atom()
		}
		v := vars[rng.Intn(len(vars))]
		switch rng.Intn(8) {
		case 0:
			return atom()
		case 1:
			return logic.Not(gen(depth - 1))
		case 2, 3:
			return logic.And(gen(depth-1), gen(depth-1))
		case 4:
			return logic.Or(gen(depth-1), gen(depth-1))
		case 5:
			return logic.Implies(gen(depth-1), gen(depth-1))
		case 6:
			return logic.Exists(v, gen(depth-1))
		default:
			return logic.Forall(v, gen(depth-1))
		}
	}
	out := make([]*logic.Formula, 250)
	for i := range out {
		f := gen(1 + rng.Intn(2))
		for q := rng.Intn(2); q >= 0; q-- {
			v := vars[rng.Intn(len(vars))]
			if rng.Intn(2) == 0 {
				f = logic.Exists(v, f)
			} else {
				f = logic.Forall(v, f)
			}
		}
		out[i] = f
	}
	return out
}

// goldenResult prints one answer: an output verbatim up to goldenInline
// bytes, else its length and hash, and an error with its message.
func goldenResult(out string, err error) string {
	if err != nil {
		out = "error " + err.Error()
	}
	if len(out) <= goldenInline {
		return out
	}
	sum := sha256.Sum256([]byte(out))
	return fmt.Sprintf("%d bytes sha256:%x", len(out), sum[:12])
}

// goldenLines runs every mode on every corpus formula: Eliminate on the
// formula, Decide on its universal closure. Each mode's line reads
// "mode: output; verdict", or "mode: =" when it answers as the mode
// above it did.
func goldenLines() (lines []string, tooLarge int) {
	for i, f := range goldenCorpus() {
		lines = append(lines, fmt.Sprintf("# %d %v", i, f))
		closure := logic.ForallAll(f.FreeVars(), f)
		prev := ""
		for _, m := range goldenModes {
			g, err := m.e.Eliminate(context.Background(), f)
			if errors.Is(err, ErrTooLarge) {
				tooLarge++
			}
			out := ""
			if g != nil {
				out = g.String()
			}
			v, err2 := m.e.Decide(context.Background(), closure)
			ans := goldenResult(out, err) + "; " + goldenResult(fmt.Sprint(v), err2)
			if ans == prev {
				lines = append(lines, m.name+": =")
				continue
			}
			lines = append(lines, m.name+": "+ans)
			prev = ans
		}
	}
	return lines, tooLarge
}

// TestEliminateGolden: on the seeded corpus, under ℕ, ℤ and without
// boundary deduplication, Eliminate and Decide answer exactly as the file
// recorded.
func TestEliminateGolden(t *testing.T) {
	got, tooLarge := goldenLines()
	if tooLarge == 0 {
		t.Errorf("no corpus formula ended on the size guard")
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d lines, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
