package autarith

import (
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Minimize returns the canonical minimal automaton of the same relation:
// unreachable states dropped, then Moore's partition refinement. Two
// formulas define the same relation iff their compiled automata minimize to
// isomorphic DFAs, which Equivalent exploits as a decision procedure for
// formula equivalence independent of Cooper's.
func Minimize(d *DFA) *DFA {
	sp := obs.StartSpan("autarith.minimize")
	defer sp.End()
	mDFAMinimizations.Inc()
	hDFAMinimizeIn.Observe(int64(d.NumStates()))
	sp.Arg("states_in", int64(d.NumStates()))
	// Reachable restriction.
	reach := []int{d.Initial}
	seen := map[int]bool{d.Initial: true}
	for i := 0; i < len(reach); i++ {
		for _, t := range d.Trans[reach[i]] {
			if !seen[t] {
				seen[t] = true
				reach = append(reach, t)
			}
		}
	}
	renum := map[int]int{}
	for i, s := range reach {
		renum[s] = i
	}

	// Moore refinement: start from the accept/reject split.
	class := make([]int, len(reach))
	for i, s := range reach {
		if d.Accept[s] {
			class[i] = 1
		}
	}
	numClasses := 2
	for {
		sig := map[string][]int{}
		order := []string{}
		for i, s := range reach {
			var b strings.Builder
			b.WriteString(strconv.Itoa(class[i]))
			for _, t := range d.Trans[s] {
				b.WriteByte(':')
				b.WriteString(strconv.Itoa(class[renum[t]]))
			}
			key := b.String()
			if _, ok := sig[key]; !ok {
				order = append(order, key)
			}
			sig[key] = append(sig[key], i)
		}
		if len(sig) == numClasses {
			break
		}
		numClasses = len(sig)
		for ci, key := range order {
			for _, i := range sig[key] {
				class[i] = ci
			}
		}
	}

	// Build the quotient.
	out := &DFA{Vars: d.Vars, Initial: class[renum[d.Initial]]}
	out.Trans = make([][]int, numClasses)
	out.Accept = make([]bool, numClasses)
	for i, s := range reach {
		c := class[i]
		if out.Trans[c] == nil {
			out.Trans[c] = make([]int, d.symbols())
			for sym, t := range d.Trans[s] {
				out.Trans[c][sym] = class[renum[t]]
			}
			out.Accept[c] = d.Accept[s]
		}
	}
	hDFAMinimizeOut.Observe(int64(out.NumStates()))
	sp.Arg("states_out", int64(out.NumStates()))
	return out
}

// Isomorphic reports whether two DFAs over the same tracks are isomorphic
// (after minimization this is relation equality). The check walks both in
// lockstep from the initial states.
func Isomorphic(a, b *DFA) bool {
	if len(a.Vars) != len(b.Vars) {
		return false
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return false
		}
	}
	if a.NumStates() != b.NumStates() {
		return false
	}
	match := map[int]int{a.Initial: b.Initial}
	stack := []int{a.Initial}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := match[s]
		if a.Accept[s] != b.Accept[t] {
			return false
		}
		for sym := range a.Trans[s] {
			as, bs := a.Trans[s][sym], b.Trans[t][sym]
			if prev, ok := match[as]; ok {
				if prev != bs {
					return false
				}
				continue
			}
			match[as] = bs
			stack = append(stack, as)
		}
	}
	return true
}

// Equivalent decides whether two Presburger formulas agree on every
// assignment over ℕ, by compiling, aligning tracks, minimizing, and
// checking isomorphism.
func Equivalent(f, g *logic.Formula) (bool, error) {
	df, err := Compile(f)
	if err != nil {
		return false, err
	}
	dg, err := Compile(g)
	if err != nil {
		return false, err
	}
	vars := MergeVars(df.Vars, dg.Vars)
	cf, err := Cylindrify(df, vars)
	if err != nil {
		return false, err
	}
	cg, err := Cylindrify(dg, vars)
	if err != nil {
		return false, err
	}
	return Isomorphic(Minimize(cf), Minimize(cg)), nil
}
