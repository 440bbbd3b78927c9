package core

import (
	"context"
	"fmt"

	"repro/internal/autarith"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/domains/eqdom"
	"repro/internal/domains/nsucc"
	"repro/internal/domains/wordlex"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/presburger"
	"repro/internal/query"
	"repro/internal/traces"
	"repro/internal/turing"
)

// Safety-decider metrics, keyed by outcome. The positive deciders return
// booleans (finite/infinite); the traces semi-decider adds the Unknown
// bucket that Theorem 3.3 makes unavoidable.
var (
	mSafetyCalls    = obs.NewCounter("safety.calls")
	mSafetyFinite   = obs.NewCounter("safety.verdict.finite")
	mSafetyInfinite = obs.NewCounter("safety.verdict.infinite")
	mSafetyUnknown  = obs.NewCounter("safety.verdict.unknown")
)

// observeSafety records one boolean decider outcome and passes it through.
func observeSafety(finite bool, err error) (bool, error) {
	mSafetyCalls.Inc()
	if err == nil {
		if finite {
			mSafetyFinite.Inc()
		} else {
			mSafetyInfinite.Inc()
		}
		if trace.Armed() {
			v := "infinite"
			if finite {
				v = "finite"
			}
			trace.Instant("safety.verdict", "safety", trace.Str("verdict", v))
		}
	}
	return finite, err
}

// This file implements the relative safety ("state finiteness") problem for
// the paper's domains: given a query and a database state, is the answer
// finite in that state? Decidable for N< extensions (Theorem 2.5), for N'
// (Theorem 2.6), and for the pure-equality domain; undecidable for the
// trace domain T (Theorem 3.3), where only a budgeted semi-decision exists.

// RelativeSafetyPresburger decides relative safety over ℕ with the
// Presburger signature (a decidable extension of N<, so Theorem 2.5
// applies): is the answer of the query's pure translation finite? It asks
// the translation's automaton, falling back to Theorem 2.5's criterion on
// Cooper (finiteOverN).
//
// This and the other boolean relative-safety procedures decide under ctx
// and stop with its error once it is done.
func RelativeSafetyPresburger(ctx context.Context, st *db.State, f *logic.Formula) (bool, error) {
	sp := obs.StartSpan("safety.relative", "domain=presburger")
	defer sp.End()
	pure, err := query.Translate(presburger.Domain{}, st, f)
	if err != nil {
		return false, err
	}
	return observeSafety(finiteOverN(ctx, sp, pure))
}

// finiteOverN decides whether the answer of a Presburger formula over ℕ is
// finite. That answer is a regular relation, so finiteness is a cycle
// check on its automaton (autarith's Count). A formula the automaton
// refuses — past its size cap, with magnitudes its residue arithmetic
// does not take, or with terms it does not compile — is decided by
// FinitizationCriterion instead, as the §1.1 enumeration falls back to
// Cooper's decider, so inputs both engines refuse keep Cooper's error.
// Once ctx is done its error is returned as it is, and Cooper does not
// run. The span records which engine answered.
func finiteOverN(ctx context.Context, sp *obs.Span, pure *logic.Formula) (bool, error) {
	d, err := autarith.Compile(ctx, pure)
	switch {
	case ctx.Err() != nil:
		return false, ctx.Err()
	case err == nil:
		sp.ArgStr("engine", "automaton")
		_, infinite := d.Count()
		return !infinite, nil
	}
	sp.ArgStr("engine", "cooper")
	return FinitizationCriterion(ctx, pure)
}

// FinitizationCriterion decides Theorem 2.5's criterion over ℕ on Cooper's
// elimination: the answer of the pure formula is finite iff the formula is
// equivalent to its finitization. It decides relative safety over ℕ
// wherever the automaton refuses a formula, and is the reference the
// automaton's verdicts are tested against.
func FinitizationCriterion(ctx context.Context, pure *logic.Formula) (bool, error) {
	return presburger.Eliminator{}.Equivalent(ctx, pure, Finitize(pure))
}

// RelativeSafetyEq decides relative safety over the pure-equality domain by
// the paper's probe: "it suffices to fix an arbitrary element not in the
// active domain and to check whether any tuple that only includes this
// element and active domain elements satisfies the formula". If some
// satisfying tuple contains the fresh element, that element was arbitrary,
// so the answer is infinite; otherwise the answer lies inside the active
// domain and is finite.
func RelativeSafetyEq(ctx context.Context, st *db.State, f *logic.Formula) (bool, error) {
	defer obs.StartSpan("safety.relative", "domain=eq").End()
	dom := eqdom.Domain{}
	pure, err := query.Translate(dom, st, f)
	if err != nil {
		return false, err
	}
	vars := pure.FreeVars()
	if len(vars) == 0 {
		return true, nil // boolean answers are finite
	}
	avoid := map[string]bool{}
	var candidates []logic.Term
	for _, v := range st.ActiveDomain() {
		avoid[v.Key()] = true
		candidates = append(candidates, logic.Const(dom.ConstName(v)))
	}
	for _, c := range pure.Constants() {
		avoid[c] = true
		candidates = append(candidates, logic.Const(c))
	}
	// One fresh element per free variable: a satisfying tuple may need
	// several distinct values outside the active domain, and any such tuple
	// maps onto the fresh ones by an automorphism fixing the active domain.
	freshKeys := map[string]bool{}
	for range vars {
		fresh := eqdom.Fresh(avoid)
		avoid[fresh.Key()] = true
		freshKeys[dom.ConstName(fresh)] = true
		candidates = append(candidates, logic.Const(dom.ConstName(fresh)))
	}

	dec := eqdom.Decider()
	var assign func(i int, usedFresh bool, g *logic.Formula) (bool, error)
	assign = func(i int, usedFresh bool, g *logic.Formula) (bool, error) {
		if i == len(vars) {
			if !usedFresh {
				return false, nil
			}
			return dec.Decide(ctx, g)
		}
		for _, c := range candidates {
			sat, err := assign(i+1, usedFresh || freshKeys[c.Name], logic.Subst(g, vars[i], c))
			if err != nil || sat {
				return sat, err
			}
		}
		return false, nil
	}
	infinite, err := assign(0, false, pure)
	if err != nil {
		return false, err
	}
	return observeSafety(!infinite, nil)
}

// RelativeSafetyNsucc decides relative safety over N' (Theorem 2.6): the
// pure translation is reduced to a quantifier-free formula by Mal'cev
// elimination, and a quantifier-free successor formula has a finite answer
// iff every satisfiable disjunct of its DNF pins every free variable to a
// constant through its positive equalities. An unpinned variable's
// component can be translated upward unboundedly, giving infinitely many
// answers.
func RelativeSafetyNsucc(ctx context.Context, st *db.State, f *logic.Formula) (bool, error) {
	defer obs.StartSpan("safety.relative", "domain=nsucc").End()
	pure, err := query.Translate(nsucc.Domain{}, st, f)
	if err != nil {
		return false, err
	}
	qf, err := nsucc.Eliminator{}.Eliminate(ctx, pure)
	if err != nil {
		return false, err
	}
	freeVars := qf.FreeVars()
	if len(freeVars) == 0 {
		return observeSafety(true, nil)
	}
	dec := nsucc.Decider()
	for _, clause := range logic.DNF(qf) {
		sat, err := dec.Decide(ctx, logic.ExistsAll(freeVars, logic.And(clause...)))
		if err != nil {
			return false, err
		}
		if !sat {
			continue
		}
		pinned, err := pinnedVars(clause)
		if err != nil {
			return false, err
		}
		for _, v := range freeVars {
			if !pinned[v] {
				return observeSafety(false, nil)
			}
		}
	}
	return observeSafety(true, nil)
}

// pinnedVars computes the variables connected to a constant through the
// positive equalities of a conjunct.
func pinnedVars(clause []*logic.Formula) (map[string]bool, error) {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b string) {
		parent[find(a)] = find(b)
	}
	const constNode = "\x00const"
	for _, lit := range clause {
		atom, positive := logic.LiteralAtom(lit)
		if !positive || !atom.IsEq() {
			continue
		}
		a, err := nsucc.Parse(atom.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := nsucc.Parse(atom.Args[1])
		if err != nil {
			return nil, err
		}
		na, nb := constNode, constNode
		if !a.IsConst() {
			na = a.Var
		}
		if !b.IsConst() {
			nb = b.Var
		}
		union(na, nb)
	}
	out := map[string]bool{}
	if _, ok := parent[constNode]; !ok {
		return out, nil
	}
	root := find(constNode)
	for v := range parent {
		if v != constNode && find(v) == root {
			out[v] = true
		}
	}
	return out, nil
}

// RelativeSafetyWordlex decides relative safety over ({a,b}*, <shortlex)
// by carrying the query across the shortlex isomorphism to N< and deciding
// it there as RelativeSafetyPresburger does — the paper's "the same ideas
// can be carried out … for strings with lexicographical ordering".
func RelativeSafetyWordlex(ctx context.Context, st *db.State, f *logic.Formula) (bool, error) {
	sp := obs.StartSpan("safety.relative", "domain=wordlex")
	defer sp.End()
	pure, err := query.Translate(wordlex.Domain{}, st, f)
	if err != nil {
		return false, err
	}
	nf, err := wordlex.ToNless(pure)
	if err != nil {
		return false, err
	}
	return observeSafety(finiteOverN(ctx, sp, nf))
}

// TracesBudget bounds the semi-decision procedures over the trace domain.
type TracesBudget struct {
	// Steps caps Turing machine simulation.
	Steps int
}

// DefaultTracesBudget suits tests and examples.
var DefaultTracesBudget = TracesBudget{Steps: 1 << 16}

// RelativeSafetyTraces semi-decides relative safety over the trace domain.
// By Theorem 3.3 no total procedure exists: P(M, c, x) is finite in state c
// iff M halts on the value of c, so a decider would solve the halting
// problem. This procedure recognizes queries of that canonical shape and
// simulates the machine within the budget: Holds means finite (the machine
// halted), Fails means a certified divergence (the machine revisited a
// configuration), Unknown means the budget ran out or the query shape is
// not recognized.
func RelativeSafetyTraces(st *db.State, f *logic.Formula, budget TracesBudget) (domain.Verdict, error) {
	defer obs.StartSpan("safety.relative", "domain=traces").End()
	v, err := relativeSafetyTraces(st, f, budget)
	if err == nil {
		mSafetyCalls.Inc()
		switch v {
		case domain.Holds:
			mSafetyFinite.Inc()
		case domain.Fails:
			mSafetyInfinite.Inc()
		default:
			mSafetyUnknown.Inc()
		}
		if trace.Armed() {
			trace.Instant("safety.verdict", "safety",
				trace.Str("domain", "traces"), trace.Str("verdict", v.String()))
		}
	}
	return v, err
}

func relativeSafetyTraces(st *db.State, f *logic.Formula, budget TracesBudget) (domain.Verdict, error) {
	pure, err := query.Translate(traces.Domain{}, st, f)
	if err != nil {
		return domain.Unknown, err
	}
	machineWord, input, ok := canonicalPQuery(pure)
	if !ok {
		return domain.Unknown, nil
	}
	m, err := turing.Decode(machineWord)
	if err != nil {
		// P with a non-machine first argument is identically false: finite.
		return domain.Holds, nil
	}
	if !turing.ValidInput(input) {
		return domain.Holds, nil
	}
	if halted := simulateWithLoopCheck(m, input, budget.Steps); halted != domain.Unknown {
		return halted, nil
	}
	return domain.Unknown, nil
}

// canonicalPQuery matches the pure formula P(m, w, x) with constant m, w
// and one free variable.
func canonicalPQuery(f *logic.Formula) (machineWord, input string, ok bool) {
	if f.Kind != logic.FAtom || f.Pred != traces.PredP || len(f.Args) != 3 {
		return "", "", false
	}
	if f.Args[0].Kind != logic.TConst || f.Args[1].Kind != logic.TConst ||
		f.Args[2].Kind != logic.TVar {
		return "", "", false
	}
	return f.Args[0].Name, f.Args[1].Name, true
}

// simulateWithLoopCheck runs m on input for at most budget steps, with two
// divergence certificates:
//
//   - exact configuration repetition (state, head, tape), which catches
//     machines looping on a bounded tape; and
//   - blank-excursion cycles: while the head stays strictly outside the
//     non-blank region and only blanks are written, transitions depend on
//     the state alone, so a repeated state with the head not closer to the
//     region certifies an endless outward drift.
//
// Both are sound; neither is complete — Theorem 3.3 says no complete
// detector exists.
func simulateWithLoopCheck(m *turing.Machine, input string, budget int) domain.Verdict {
	c := turing.NewConfig(m, input)
	seen := map[string]bool{}
	exStates := map[int]int{} // state -> head position within the excursion
	inExcursion := false
	exRight := false
	prevExtent := ""
	for steps := 0; steps <= budget; steps++ {
		if c.Halted() {
			return domain.Holds
		}
		key := fmt.Sprintf("%d@%d:%s", c.State(), c.Head(), c.TapeWindow())
		if seen[key] {
			return domain.Fails
		}
		seen[key] = true

		lo, hi, empty := c.NonBlankExtent()
		extent := fmt.Sprintf("%d:%d:%v", lo, hi, empty)
		beyondRight := (empty && c.Head() >= 0) || (!empty && c.Head() > hi)
		beyondLeft := (empty && c.Head() < 0) || (!empty && c.Head() < lo)
		if (beyondRight || beyondLeft) && extent == prevExtent && inExcursion && exRight == beyondRight {
			if prev, ok := exStates[c.State()]; ok {
				if (beyondRight && c.Head() >= prev) || (beyondLeft && c.Head() <= prev) {
					return domain.Fails
				}
			}
			exStates[c.State()] = c.Head()
		} else if beyondRight || beyondLeft {
			inExcursion = true
			exRight = beyondRight
			exStates = map[int]int{c.State(): c.Head()}
		} else {
			inExcursion = false
		}
		prevExtent = extent

		c.Step()
	}
	return domain.Unknown
}

// HaltingToRelativeSafety is the Theorem 3.3 reduction: it maps a Turing
// machine and input word to a query and state such that the machine halts
// on the input iff the query is finite in the state. The query is the
// totality formula M(x) := P(M, c, x) and the state sets the database
// constant c to the input word.
func HaltingToRelativeSafety(machineWord, input string) (*logic.Formula, *db.State, error) {
	if !turing.IsMachineWord(machineWord) {
		return nil, nil, fmt.Errorf("core: %q is not a machine word", machineWord)
	}
	if !turing.ValidInput(input) {
		return nil, nil, fmt.Errorf("core: %q is not an input word", input)
	}
	st := db.NewState(TotalityScheme())
	if err := st.SetConstant(DBConst, domain.Word(input)); err != nil {
		return nil, nil, err
	}
	return TotalityQuery(machineWord), st, nil
}
