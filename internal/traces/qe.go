package traces

import (
	"context"
	"fmt"

	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/turing"
)

// QE metrics: whole-pass counts, formula growth, and per-quantifier work.
var (
	mQECalls       = obs.NewCounter("qe.traces.eliminations")
	mQEQuantifiers = obs.NewCounter("qe.traces.quantifiers")
	mQEConjuncts   = obs.NewCounter("qe.traces.conjuncts")
	hQESizeIn      = obs.NewHistogram("qe.traces.size_in")
	hQESizeOut     = obs.NewHistogram("qe.traces.size_out")
)

// Eliminator implements quantifier elimination for the Reach Theory of
// Traces (Theorem A.3) and, via the pre-translation of P, for the Theory of
// Traces itself. Combined with ground evaluation over the recursive model
// (Fact A.1) it yields the decision procedure of Corollary A.4.
//
// The algorithm follows the appendix:
//
//   - eliminate innermost quantifiers first, treating ∀ as ¬∃¬;
//   - distribute ∃x over a DNF of the matrix;
//   - within a conjunct, substitute away positive equalities x = t;
//   - split the quantifier by sort: ∃x ψ ≡ ⋁_{σ ∈ {M,W,T,O}} ∃x∈σ ψ,
//     specializing every literal under the sort assumption (w(x) = m(x) = ε
//     outside T, sort atoms resolve, ill-sorted B/D/E atoms become false);
//   - rewrite negated B/D/E literals on x into positive disjunctions
//     (¬B_s is a disjunction over the other same-length prefix classes;
//     ¬D_k ≡ ⋁_{j<k} E_j and ¬E_k ≡ D_{k+1} ∨ ⋁_{j<k} E_j, with sort guards
//     on non-canonical arguments);
//   - expand D/E atoms whose word argument is not a constant over the
//     prefix classes B_u, u ∈ {1,&}^k ("Using B_v for all input words whose
//     length does not exceed the maximum of i1, …, jl");
//   - solve the residual canonical systems per sort: Lemma A.2 decides the
//     D/E systems of cases M, T-1 and T-3; case W reduces to prefix-class
//     compatibility; case T-4 emits the trace-counting formula
//     ⋁_k (exactly k of the excluded traces are traces of t in v) ∧ D_{k+1}(t,v).
//
// Inequalities against the quantified variable are dropped where the
// witness class is infinite (behaviourally equivalent machines differing in
// unreachable rules; input words padded with blanks; traces of distinct
// machines or distinct inputs), exactly as in the paper's cases.
type Eliminator struct {
	// MaxIndex bounds D/E indices accepted for prefix-class expansion;
	// the expansion is exponential in the index. 0 means DefaultMaxIndex.
	MaxIndex int
	// MaxExcluded bounds the number of x ≠ t literals in case T-4, whose
	// counting formula is combinatorial. 0 means DefaultMaxExcluded.
	MaxExcluded int
	// NoIntermediateSimplify disables the propositional simplification
	// between elimination steps. Only for the ablation benchmarks: the
	// simplifier prunes DNF clauses (dead sort branches, duplicate
	// literals) before they multiply in the next elimination.
	NoIntermediateSimplify bool
}

// simplify applies intermediate simplification unless ablated.
func (e Eliminator) simplify(f *logic.Formula) *logic.Formula {
	if e.NoIntermediateSimplify {
		return f
	}
	return logic.Simplify(f)
}

// DefaultMaxIndex is the default bound on expanded D/E indices.
const DefaultMaxIndex = 12

// DefaultMaxExcluded is the default bound on case T-4 exclusions.
const DefaultMaxExcluded = 8

func (e Eliminator) maxIndex() int {
	if e.MaxIndex > 0 {
		return e.MaxIndex
	}
	return DefaultMaxIndex
}

func (e Eliminator) maxExcluded() int {
	if e.MaxExcluded > 0 {
		return e.MaxExcluded
	}
	return DefaultMaxExcluded
}

// Eliminate implements domain.Eliminator: it returns a quantifier-free
// formula equivalent to f over T, in the Reach signature, with ground atoms
// evaluated away. The context is polled between pipeline stages and before
// each quantifier elimination, so a request-scoped deadline can abandon a
// run whose intermediate formulas are still multiplying.
func (e Eliminator) Eliminate(ctx context.Context, f *logic.Formula) (*logic.Formula, error) {
	_, sp := obs.StartSpanCtx(ctx, "qe.traces.eliminate")
	defer sp.End()
	mQECalls.Inc()
	sizeIn := int64(f.Size())
	hQESizeIn.Observe(sizeIn)
	sp.Arg("size_in", sizeIn)
	if err := CheckSignature(f); err != nil {
		return nil, err
	}
	// Each stage span carries the formula size it produced, so an exported
	// trace shows which stage blew the formula up (or shrank it back).
	st := sp.Child("normalize")
	g, err := normalizeTerms(TranslateP(f))
	stageSize(st, g)
	st.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st = sp.Child("elim")
	g, err = domain.EliminateQuantifiers(ctx, g, e.elimExists, !e.NoIntermediateSimplify)
	stageSize(st, g)
	st.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st = sp.Child("ground")
	g, err = evalGroundAtoms(g)
	stageSize(st, g)
	st.End()
	if err != nil {
		return nil, err
	}
	st = sp.Child("simplify")
	g = logic.Simplify(g)
	stageSize(st, g)
	st.End()
	sizeOut := int64(g.Size())
	hQESizeOut.Observe(sizeOut)
	sp.Arg("size_out", sizeOut)
	return g, nil
}

// stageSize records a stage's output formula size on its trace span.
func stageSize(st *obs.Span, g *logic.Formula) {
	if st.Traced() && g != nil {
		st.Arg("size", int64(g.Size()))
	}
}

// elimExists eliminates ∃x from a quantifier-free body.
func (e Eliminator) elimExists(x string, body *logic.Formula) (*logic.Formula, error) {
	mQEQuantifiers.Inc()
	body = e.simplify(body)
	if !body.HasFreeVar(x) {
		return body, nil // the universe is nonempty
	}
	var disjuncts []*logic.Formula
	clauses := logic.DNF(body)
	mQEConjuncts.Add(int64(len(clauses)))
	for _, clause := range clauses {
		g, err := e.elimConjunct(x, clause)
		if err != nil {
			return nil, err
		}
		disjuncts = append(disjuncts, g)
	}
	return e.simplify(logic.Or(disjuncts...)), nil
}

// elimConjunct eliminates ∃x from a conjunction of literals.
func (e Eliminator) elimConjunct(x string, lits []*logic.Formula) (*logic.Formula, error) {
	// Substitute away a positive equality x = t with t free of x.
	for _, lit := range lits {
		if lit.Kind != logic.FAtom || !lit.IsEq() {
			continue
		}
		var t logic.Term
		if lit.Args[0].IsVar(x) && !lit.Args[1].HasVar(x) {
			t = lit.Args[1]
		} else if lit.Args[1].IsVar(x) && !lit.Args[0].HasVar(x) {
			t = lit.Args[0]
		} else {
			continue
		}
		out := make([]*logic.Formula, len(lits))
		for i, l := range lits {
			out[i] = logic.Subst(l, x, t)
		}
		return normalizeTerms(logic.And(out...))
	}

	var rest, xlits []*logic.Formula
	for _, lit := range lits {
		if lit.HasFreeVar(x) {
			xlits = append(xlits, lit)
		} else {
			rest = append(rest, lit)
		}
	}
	if len(xlits) == 0 {
		return logic.And(rest...), nil
	}

	var branches []*logic.Formula
	for _, sort := range []string{PredM, PredW, PredT, PredO} {
		b, err := e.elimSort(x, sort, xlits)
		if err != nil {
			return nil, err
		}
		branches = append(branches, logic.And(append([]*logic.Formula{b}, rest...)...))
	}
	return e.simplify(logic.Or(branches...)), nil
}

// elimSort eliminates ∃x∈sort from the literals mentioning x.
func (e Eliminator) elimSort(x, sort string, xlits []*logic.Formula) (*logic.Formula, error) {
	var specialized []*logic.Formula
	for _, lit := range xlits {
		g, err := e.specialize(x, sort, lit)
		if err != nil {
			return nil, err
		}
		specialized = append(specialized, g)
	}
	combined := e.simplify(logic.And(specialized...))
	var disjuncts []*logic.Formula
	for _, clause := range logic.DNF(combined) {
		g, err := e.coreSolve(x, sort, clause)
		if err != nil {
			return nil, err
		}
		disjuncts = append(disjuncts, g)
	}
	return e.simplify(logic.Or(disjuncts...)), nil
}

// epsilonize rewrites w(x) and m(x) to the empty-word constant when x is
// assumed outside T (the extraction functions are ε off traces).
func epsilonize(t logic.Term, x, sort string) logic.Term {
	if sort == PredT || t.Kind != logic.TApp {
		return t
	}
	if len(t.Args) == 1 && t.Args[0].IsVar(x) {
		return logic.Const("")
	}
	return t
}

// xShape classifies a term's relationship to the sorted variable x.
type xShape int

const (
	shapeFree xShape = iota // does not mention x
	shapeX                  // the variable x itself
	shapeWOfX               // w(x), only under sort T
	shapeMOfX               // m(x), only under sort T
)

func shapeOf(t logic.Term, x string) xShape {
	switch {
	case t.IsVar(x):
		return shapeX
	case t.Kind == logic.TApp && len(t.Args) == 1 && t.Args[0].IsVar(x):
		if t.Name == FuncW {
			return shapeWOfX
		}
		return shapeMOfX
	default:
		return shapeFree
	}
}

// boolFormula converts a truth value and a literal polarity to a formula.
func boolFormula(truth, positive bool) *logic.Formula {
	if truth == positive {
		return logic.True()
	}
	return logic.False()
}

// specialize rewrites one literal mentioning x under the assumption x ∈
// sort, producing a quantifier-free formula whose x-occurrences are in
// canonical positions only: x ≠ t, x = t (outside T), B(s, x), D/E(x, u)
// for sort M; m(x)/w(x) equalities, B(s, w(x)), D/E(m(x), u) for sort T —
// with u a constant input word — plus arbitrary x-free parts.
func (e Eliminator) specialize(x, sort string, lit *logic.Formula) (*logic.Formula, error) {
	atom, positive := logic.LiteralAtom(lit)
	args := make([]logic.Term, len(atom.Args))
	for i, a := range atom.Args {
		args[i] = epsilonize(a, x, sort)
	}

	relit := func(f *logic.Formula) *logic.Formula {
		if positive {
			return f
		}
		return logic.Not(f)
	}

	switch {
	case atom.IsEq():
		return e.specializeEq(x, sort, args[0], args[1], positive)

	case atom.Pred == PredM || atom.Pred == PredW || atom.Pred == PredT || atom.Pred == PredO:
		switch shapeOf(args[0], x) {
		case shapeX:
			return boolFormula(atom.Pred == sort, positive), nil
		case shapeWOfX: // w(x) ∈ W always (an input word or ε, and ε ∈ W)
			return boolFormula(atom.Pred == PredW, positive), nil
		case shapeMOfX: // under sort T, m(x) is a machine word
			return boolFormula(atom.Pred == PredM, positive), nil
		default:
			return relit(logic.Atom(atom.Pred, args...)), nil
		}

	case atom.Pred == PredB:
		return e.specializeB(x, sort, args, positive)

	case atom.Pred == PredP:
		return nil, fmt.Errorf("traces: internal error: P atom survived translation")

	default:
		if _, _, ok := ParseDE(atom.Pred); ok {
			return e.specializeDE(x, sort, atom.Pred, args, positive)
		}
		return nil, fmt.Errorf("traces: unknown predicate %q", atom.Pred)
	}
}

// specializeEq handles equality literals under a sort assumption.
func (e Eliminator) specializeEq(x, sort string, a, b logic.Term, positive bool) (*logic.Formula, error) {
	sa, sb := shapeOf(a, x), shapeOf(b, x)
	if sa == shapeFree && sb == shapeFree {
		f := logic.Eq(a, b)
		if !positive {
			return logic.Not(f), nil
		}
		return f, nil
	}
	if sa != shapeFree && sb != shapeFree {
		// Both sides mention x. Equal shapes are trivially equal; distinct
		// shapes live in disjoint sorts under T (x ∈ T, w(x) ∈ W,
		// m(x) ∈ M, and m(x) is never ε), so they are never equal.
		return boolFormula(sa == sb, positive), nil
	}
	// Canonical: one x-side, one free side. Orient x-side first.
	if sa == shapeFree {
		a, b = b, a
		sa = sb
	}
	xterm := a
	_ = sa
	f := logic.Eq(xterm, b)
	if !positive {
		return logic.Not(f), nil
	}
	return f, nil
}

// specializeB handles B(s, u) literals.
func (e Eliminator) specializeB(x, sort string, args []logic.Term, positive bool) (*logic.Formula, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("traces: B expects 2 arguments")
	}
	s := args[0]
	if s.Kind != logic.TConst {
		return nil, fmt.Errorf("traces: B index must be a constant word, got %v", s)
	}
	if !turing.ValidInput(s.Name) {
		// B_s is identically false for a non-input-word index.
		return boolFormula(false, positive), nil
	}
	u := args[1]
	var pos logic.Term
	switch shapeOf(u, x) {
	case shapeFree:
		f := logic.Atom(PredB, s, u)
		if !positive {
			return logic.Not(f), nil
		}
		return f, nil
	case shapeX:
		if sort != PredW {
			return boolFormula(false, positive), nil
		}
		pos = logic.Var(x)
	case shapeWOfX:
		pos = u // w(x) under sort T is an input word
	case shapeMOfX:
		return boolFormula(false, positive), nil
	}
	if positive {
		return logic.Atom(PredB, s, pos), nil
	}
	// ¬B_s(pos) with pos a guaranteed input word: the prefix classes of
	// length |s| partition W, so the negation is the disjunction of the
	// other classes.
	if len(s.Name) > e.maxIndex() {
		return nil, fmt.Errorf("traces: ¬B expansion over prefix length %d exceeds bound %d", len(s.Name), e.maxIndex())
	}
	var out []*logic.Formula
	for _, w := range inputWords(len(s.Name)) {
		if w != s.Name {
			out = append(out, logic.Atom(PredB, logic.Const(w), pos))
		}
	}
	return logic.Or(out...), nil
}

// inputWords returns all words over {1,&} of exactly length n.
func inputWords(n int) []string {
	words := []string{""}
	for i := 0; i < n; i++ {
		next := make([]string, 0, 2*len(words))
		for _, w := range words {
			next = append(next, w+"1", w+"&")
		}
		words = next
	}
	return words
}

// specializeDE handles D_k/E_k literals.
func (e Eliminator) specializeDE(x, sort, pred string, args []logic.Term, positive bool) (*logic.Formula, error) {
	exact, k, _ := ParseDE(pred)
	if len(args) != 2 {
		return nil, fmt.Errorf("traces: %s expects 2 arguments", pred)
	}
	mt, wt := args[0], args[1]

	// Resolve the machine side.
	machineCanonical := false
	switch shapeOf(mt, x) {
	case shapeX:
		if sort != PredM {
			return boolFormula(false, positive), nil
		}
		machineCanonical = true
	case shapeMOfX:
		machineCanonical = true // sort T
	case shapeWOfX:
		return boolFormula(false, positive), nil // w(x) ∈ W, not a machine
	}

	// Resolve the word side.
	wordCanonical := false
	switch shapeOf(wt, x) {
	case shapeX:
		if sort != PredW {
			return boolFormula(false, positive), nil
		}
		wordCanonical = true
	case shapeWOfX:
		wordCanonical = true // sort T
	case shapeMOfX:
		return boolFormula(false, positive), nil // m(x) ∈ M, not a word
	}

	if !machineCanonical && !wordCanonical {
		// x-free after epsilonization.
		f := logic.Atom(pred, mt, wt)
		if !positive {
			return logic.Not(f), nil
		}
		return f, nil
	}

	if positive {
		return e.positiveDE(x, exact, k, mt, wt, machineCanonical, wordCanonical)
	}

	// Negation: ¬D_k ≡ ¬M(mt) ∨ ¬W(wt) ∨ ⋁_{j<k} E_j, and
	// ¬E_k ≡ ¬M(mt) ∨ ¬W(wt) ∨ D_{k+1} ∨ ⋁_{j<k} E_j. Canonical sides are
	// correctly sorted by assumption, so their sort guards vanish.
	var parts []*logic.Formula
	if !machineCanonical {
		parts = append(parts, logic.Not(logic.Atom(PredM, mt)))
	}
	if !wordCanonical {
		parts = append(parts, logic.Not(logic.Atom(PredW, wt)))
	}
	if exact {
		g, err := e.positiveDE(x, false, k+1, mt, wt, machineCanonical, wordCanonical)
		if err != nil {
			return nil, err
		}
		parts = append(parts, g)
	}
	for j := 1; j < k; j++ {
		g, err := e.positiveDE(x, true, j, mt, wt, machineCanonical, wordCanonical)
		if err != nil {
			return nil, err
		}
		parts = append(parts, g)
	}
	return logic.Or(parts...), nil
}

// positiveDE renders a positive D/E atom in canonical form, expanding
// non-constant word arguments over the prefix classes of length k
// (a machine's halting behaviour within the first k−1 steps is determined
// by the input's effective prefix of length k).
func (e Eliminator) positiveDE(x string, exact bool, k int, mt, wt logic.Term, machineCanonical, wordCanonical bool) (*logic.Formula, error) {
	pred := DEName(exact, k)
	if wt.Kind == logic.TConst && !wordCanonical {
		return logic.Atom(pred, mt, wt), nil
	}
	// Expand the word side over prefix classes.
	if k > e.maxIndex() {
		return nil, fmt.Errorf("traces: D/E expansion with index %d exceeds bound %d", k, e.maxIndex())
	}
	var out []*logic.Formula
	for _, u := range inputWords(k) {
		out = append(out, logic.And(
			logic.Atom(PredB, logic.Const(u), wt),
			logic.Atom(pred, mt, logic.Const(u)),
		))
	}
	return logic.Or(out...), nil
}
