package autarith

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/presburger"
)

// compileGoldenPath holds Compile's output on the golden corpus, one line
// per formula: its refusal, or the cells its construction charged, a
// digest of the automaton exactly as built (tracks, table, acceptance and
// initial state) and a digest of its canonical minimal automaton. The
// file was written by the constructions that allocated every state's row
// on the heap, before they moved onto a pooled arena, and pins them state
// for state: a change to how the constructions store their work must not
// change what they build, so the file is not regenerated to make such a
// change pass.
//
// Divisibility atoms were rebuilt afterwards on residues, with other
// states than the (residue, weight) pairs the file recorded, so formulas
// with a dvd atom are held to the minimal automaton alone: the same
// relation. One the file records as refused must, if it compiles now,
// agree with Cooper on every tuple of a small grid.
const compileGoldenPath = "testdata/compile.golden"

// goldenCorpus draws the corpus: 500 randOpenFormula2 formulas from seed
// 42.
func goldenCorpus() []*logic.Formula {
	rng := rand.New(rand.NewSource(42))
	out := make([]*logic.Formula, 500)
	for i := range out {
		out[i] = randOpenFormula2(rng)
	}
	return out
}

// goldenLine renders Compile's result on one formula.
func goldenLine(f *logic.Formula) string {
	d, cells, err := compileFree(context.Background(), f)
	if err != nil {
		return fmt.Sprintf("refused cells=%d %v: %v", cells, err, f)
	}
	return fmt.Sprintf("cells=%d raw=%s min=%s: %v", cells, digest(d), digest(canonical(Minimize(d))), f)
}

// digest hashes an automaton's tracks, initial state, table and
// acceptance.
func digest(d *DFA) string {
	h := sha256.New()
	fmt.Fprintf(h, "%q %d ", d.Vars, d.Initial)
	var buf [8]byte
	for _, t := range d.Trans {
		binary.LittleEndian.PutUint64(buf[:], uint64(t))
		h.Write(buf[:])
	}
	for _, a := range d.Accept {
		if a {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// canonical renumbers an automaton's reachable states breadth-first from
// the initial one, successors in symbol order, so isomorphic automata
// come out equal.
func canonical(d *DFA) *DFA {
	order := []int{d.Initial}
	num := map[int]int{d.Initial: 0}
	for i := 0; i < len(order); i++ {
		for _, t := range d.row(order[i]) {
			if _, ok := num[t]; !ok {
				num[t] = len(order)
				order = append(order, t)
			}
		}
	}
	out := &DFA{Vars: d.Vars, Trans: make([]int, 0, len(order)<<len(d.Vars)), Accept: make([]bool, len(order))}
	for i, s := range order {
		for _, t := range d.row(s) {
			out.Trans = append(out.Trans, num[t])
		}
		out.Accept[i] = d.Accept[s]
	}
	return out
}

// TestCompileGolden: Compile builds, on every corpus formula, the
// automaton the file recorded, with the same charge; see
// compileGoldenPath for the formulas with a dvd atom.
func TestCompileGolden(t *testing.T) {
	data, err := os.ReadFile(compileGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	corpus := goldenCorpus()
	if len(want) != len(corpus) {
		t.Fatalf("%d formulas, golden file has %d lines", len(corpus), len(want))
	}
	dvd := 0
	for i, f := range corpus {
		got := goldenLine(f)
		if got == want[i] {
			continue
		}
		if !strings.Contains(f.String(), presburger.PredDvd+"(") {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, got, want[i])
		}
		dvd++
		if strings.HasPrefix(want[i], "refused ") {
			agreeWithCooper(t, f)
			continue
		}
		if minimal(got) != minimal(want[i]) {
			t.Fatalf("line %d, minimal automaton:\n got  %s\n want %s", i+1, got, want[i])
		}
	}
	t.Logf("%d formulas with a dvd atom built other states for the same relation", dvd)
}

// minimal extracts a golden line's minimal digest; a refusal has none.
func minimal(line string) string {
	_, rest, ok := strings.Cut(line, " min=")
	if !ok {
		return line
	}
	d, _, _ := strings.Cut(rest, ":")
	return d
}

// agreeWithCooper checks a formula's automaton against Cooper's decision
// of every tuple below 8.
func agreeWithCooper(t *testing.T, f *logic.Formula) {
	t.Helper()
	d, err := Compile(context.Background(), f)
	if err != nil {
		return // refused then and now
	}
	vals := make([]int64, len(d.Vars))
	var walk func(j int)
	walk = func(j int) {
		if j == len(vals) {
			g := f
			for i, v := range d.Vars {
				g = logic.Subst(g, v, num(vals[i]))
			}
			want, err := (presburger.Eliminator{}).Decide(context.Background(), g)
			if err != nil {
				t.Fatalf("%v: Cooper: %v", g, err)
			}
			if got, _ := d.Runs(vals); got != want {
				t.Fatalf("%v at %v: automaton %v, Cooper %v", f, vals, got, want)
			}
			return
		}
		for v := int64(0); v < 8; v++ {
			vals[j] = v
			walk(j + 1)
		}
	}
	walk(0)
}
