package presburger

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/obs"
)

// Per-quantifier metrics: each cooper call eliminates one ∃, and the
// boundary-set size drives the output's growth factor.
var (
	mCooperQuantifiers = obs.NewCounter("qe.presburger.quantifiers")
	hCooperBoundSet    = obs.NewHistogram("qe.presburger.boundary_set_size")
)

// Internal quantifier-free representation: positive boolean combinations of
// three atom kinds.
type atomKind int

const (
	atomLt   atomKind = iota // t < 0
	atomDvd                  // d | t
	atomNdvd                 // d ∤ t
)

type qf struct {
	// op is 'a' for an atom, '&' and '|' for connectives, 't'/'f' for
	// constants.
	op   byte
	sub  []*qf
	kind atomKind
	t    LinearTerm
	d    Num // the modulus of a divisibility atom
}

// The constants are shared: no pass modifies a node once built, and a
// pass that changes nothing returns its input.
var qfTrue, qfFalse = &qf{op: 't'}, &qf{op: 'f'}

// qfAtom builds an atom, evaluating a ground one and normalizing
// divisibility by ±1.
func qfAtom(kind atomKind, t LinearTerm, d Num) *qf {
	var holds bool
	switch {
	case kind == atomLt && t.IsConst():
		holds = t.Const.Sign() < 0
	case kind != atomLt && d.Abs().Cmp(NumOf(1)) == 0:
		holds = kind == atomDvd
	case kind != atomLt && t.IsConst():
		holds = (t.Const.Mod(d).Sign() == 0) == (kind == atomDvd)
	default:
		return &qf{op: 'a', kind: kind, t: t, d: d}
	}
	if holds {
		return qfTrue
	}
	return qfFalse
}

// qfUnits returns the absorbing and the neutral constant of a junction.
func qfUnits(op byte) (absorbing, neutral *qf) {
	if op == '&' {
		return qfFalse, qfTrue
	}
	return qfTrue, qfFalse
}

func qfAnd(sub ...*qf) *qf { return qfJunction('&', sub) }
func qfOr(sub ...*qf) *qf  { return qfJunction('|', sub) }

// qfJunction builds the conjunction (op '&') or disjunction ('|') of sub,
// folding constants and flattening nested junctions of the same kind. It
// keeps sub when there is nothing to fold, so callers pass a fresh slice.
func qfJunction(op byte, sub []*qf) *qf {
	absorbing, neutral := qfUnits(op)
	flat := sub
	for _, s := range sub {
		switch s.op {
		case absorbing.op:
			return absorbing
		case neutral.op, op:
			flat = nil
		}
	}
	if flat == nil {
		flat = make([]*qf, 0, len(sub))
		for _, s := range sub {
			switch s.op {
			case neutral.op:
			case op:
				flat = append(flat, s.sub...)
			default:
				flat = append(flat, s)
			}
		}
	}
	switch len(flat) {
	case 0:
		return neutral
	case 1:
		return flat[0]
	}
	return &qf{op: op, sub: flat}
}

// nodes counts formula nodes, for the resource guard.
func (f *qf) nodes() int {
	n := 1
	for _, s := range f.sub {
		n += s.nodes()
	}
	return n
}

// mapAtoms rebuilds the formula with each atom rewritten. A node none of
// whose atoms changed is returned as it is.
func (f *qf) mapAtoms(rw func(*qf) *qf) *qf {
	switch f.op {
	case 'a':
		return rw(f)
	case '&', '|':
		absorbing, neutral := qfUnits(f.op)
		var out []*qf
		for i, s := range f.sub {
			g := s.mapAtoms(rw)
			if out == nil {
				if g == s {
					continue
				}
				out = make([]*qf, i, len(f.sub))
				copy(out, f.sub[:i])
			}
			switch g.op {
			case absorbing.op:
				return absorbing
			case neutral.op:
			default:
				out = append(out, g)
			}
		}
		if out == nil {
			return f
		}
		return qfJunction(f.op, out)
	}
	return f
}

// visitAtoms calls visit on every atom.
func (f *qf) visitAtoms(visit func(*qf)) {
	switch f.op {
	case 'a':
		visit(f)
	case '&', '|':
		for _, s := range f.sub {
			s.visitAtoms(visit)
		}
	}
}

// subst substitutes variable v by the linear term u in every atom, then
// simplifies ground atoms.
func (f *qf) subst(v string, u LinearTerm) *qf {
	return f.mapAtoms(func(a *qf) *qf {
		if a.t.Coeff(v).Sign() == 0 {
			return a
		}
		return qfAtom(a.kind, a.t.Subst(v, u), a.d)
	})
}

// cooper eliminates ∃x from a canonical quantifier-free formula using
// Cooper's algorithm (the −∞ / boundary-set version). NoBoundDedup
// disables boundary-set deduplication, which keeps the algorithm correct
// but multiplies the output by the redundancy of the bound set. The
// context is polled once per bound deduplicated and per disjunct built.
func (e Eliminator) cooper(x string, f *qf) (*qf, error) {
	sp := obs.StartSpan("qe.presburger.cooper")
	defer sp.End()
	mCooperQuantifiers.Inc()
	// Step 1: make every x-coefficient ±1. δ is the lcm of |coefficients|;
	// each atom is scaled so its x-coefficient is ±δ, then δx is renamed to
	// a fresh unit variable constrained by δ | x.
	stage := sp.Child("unit")
	one := NumOf(1)
	delta := one
	f.visitAtoms(func(a *qf) {
		if c := a.t.Coeff(x); c.Sign() != 0 {
			delta = lcm(delta, c)
		}
	})
	unit := f.mapAtoms(func(a *qf) *qf {
		c := a.t.Coeff(x)
		if c.Sign() == 0 || delta.Cmp(one) == 0 {
			return a
		}
		// Scale so the coefficient of x becomes exactly ±delta (keeping
		// inequality direction: the factor is positive), then rename
		// delta·x to x.
		factor := delta.Quo(c).Abs()
		return qfAtom(a.kind, a.t.unit(x, factor), a.d.Mul(factor))
	})
	if delta.Cmp(one) > 0 {
		unit = qfAnd(unit, qfAtom(atomDvd, FromVar(x), delta))
	}
	if stage.Traced() {
		stage.Arg("nodes", int64(unit.nodes()))
	}
	stage.End()
	stage = sp.Child("bounds")

	// Step 2: D = lcm of divisibility moduli involving x.
	bigD := one
	unit.visitAtoms(func(a *qf) {
		if (a.kind == atomDvd || a.kind == atomNdvd) && a.t.Coeff(x).Sign() != 0 {
			bigD = lcm(bigD, a.d)
		}
	})

	// Step 3: φ_{-∞} — x + r < 0 becomes true, −x + r < 0 becomes false.
	minusInf := unit.mapAtoms(func(a *qf) *qf {
		if a.kind != atomLt {
			return a
		}
		switch a.t.Coeff(x).Sign() {
		case 1:
			return qfTrue
		case -1:
			return qfFalse
		}
		return a
	})

	// Step 4: boundary set B — terms r from atoms −x + r < 0 (x > r).
	var bset []LinearTerm
	unit.visitAtoms(func(a *qf) {
		if a.kind == atomLt && a.t.Coeff(x).Sign() < 0 {
			bset = append(bset, a.t.Subst(x, LinearTerm{}))
		}
	})
	uniq := bset
	if !e.NoBoundDedup {
		var err error
		if uniq, err = e.dedupBounds(bset); err != nil {
			return nil, err
		}
	}

	stage.Arg("bound_set", int64(len(uniq)))
	stage.Arg("bound_set_raw", int64(len(bset)))
	stage.End()
	hCooperBoundSet.Observe(int64(len(uniq)))

	n, ok := bigD.Int64()
	if !ok || n > 1<<20 {
		return nil, fmt.Errorf("%w: presburger: divisor lcm %v too large", ErrTooLarge, bigD)
	}

	// Resource guard, before constructing: the result has
	// D·(1+|B|) copies of the matrix. Floating point avoids overflow in
	// the estimate itself.
	if est := float64(n) * float64(1+len(uniq)) * float64(unit.nodes()); est > float64(e.maxNodes()) {
		return nil, fmt.Errorf("%w: presburger: elimination of %s would build ~%.0f nodes (Cooper blowup)", ErrTooLarge, x, est)
	}

	stage = sp.Child("expand")
	defer stage.End()
	var disjuncts []*qf
	for j := int64(1); j <= n; j++ {
		if err := e.checkCtx(); err != nil {
			return nil, err
		}
		disjuncts = append(disjuncts, minusInf.subst(x, FromConst(NumOf(j))))
		for _, r := range uniq {
			if err := e.checkCtx(); err != nil {
				return nil, err
			}
			disjuncts = append(disjuncts, unit.subst(x, r.AddInt(j)))
		}
	}
	out := qfOr(disjuncts...)
	if stage.Traced() {
		stage.Arg("divisor_lcm", n)
		stage.Arg("disjuncts", int64(len(disjuncts)))
		stage.Arg("nodes", int64(out.nodes()))
	}
	return out, nil
}

// keyedBounds is the boundary-set size above which dedupBounds finds
// repeated terms through a map of their encodings, as logic.Simplify keys
// wide junctions. Comparing each term with every kept one is quadratic:
// the finitization criterion of lt(x, 9) & dvd(65537, x) spent 16 s in
// it. Narrower sets keep the pairwise loop, which allocates nothing and
// costs at most ~10⁴ comparisons here; keyed from 32 terms, the 49- and
// 68-term sets of the E4 join's criterion cost 28 more objects.
const keyedBounds = 128

// dedupBounds drops the repeated terms of a boundary set, keeping first
// occurrences in order, and polls the context once per term.
func (e Eliminator) dedupBounds(bset []LinearTerm) ([]LinearTerm, error) {
	uniq := bset[:0:0]
	if len(bset) > keyedBounds {
		seen := make(map[string]struct{}, len(bset))
		var key []byte
		for _, r := range bset {
			if err := e.checkCtx(); err != nil {
				return nil, err
			}
			key = r.appendKey(key[:0])
			if _, dup := seen[string(key)]; !dup {
				seen[string(key)] = struct{}{}
				uniq = append(uniq, r)
			}
		}
		return uniq, nil
	}
	for _, r := range bset {
		if err := e.checkCtx(); err != nil {
			return nil, err
		}
		dup := false
		for _, u := range uniq {
			if u.Equal(r) {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, r)
		}
	}
	return uniq, nil
}

// canonicalize converts an NNF quantifier-free logic formula into the
// internal representation, resolving negations into the three positive atom
// kinds. It polls the context at each connective, since an intermediate
// formula can hold hundreds of thousands of nodes.
func (e Eliminator) canonicalize(f *logic.Formula) (*qf, error) {
	switch f.Kind {
	case logic.FTrue:
		return qfTrue, nil
	case logic.FFalse:
		return qfFalse, nil
	case logic.FAnd, logic.FOr:
		if err := e.checkCtx(); err != nil {
			return nil, err
		}
		out := make([]*qf, len(f.Sub))
		for i, s := range f.Sub {
			g, err := e.canonicalize(s)
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
		if f.Kind == logic.FAnd {
			return qfAnd(out...), nil
		}
		return qfOr(out...), nil
	case logic.FAtom:
		return canonicalAtom(f, true)
	case logic.FNot:
		if f.Sub[0].Kind != logic.FAtom {
			return nil, fmt.Errorf("presburger: canonicalize expects NNF, found %v", f)
		}
		return canonicalAtom(f.Sub[0], false)
	}
	return nil, fmt.Errorf("presburger: canonicalize on %v", f)
}

// canonicalAtom renders one (possibly negated) atom into the internal form.
//
//	a < b   ⟺  a − b < 0          ¬(a < b) ⟺ b − a − 1 < 0… i.e. b ≤ a
//	a = b   ⟺  a − b < 1 ∧ b − a < 1
//	¬(a=b)  ⟺  a − b < 0 ∨ b − a < 0
func canonicalAtom(f *logic.Formula, positive bool) (*qf, error) {
	lt := func(t LinearTerm) *qf { return qfAtom(atomLt, t, Num{}) }
	switch f.Pred {
	case logic.EqPred, PredLt, PredLe, PredGt, PredGe:
		if len(f.Args) != 2 {
			return nil, fmt.Errorf("presburger: %s expects 2 arguments", f.Pred)
		}
		a, err := ParseLinear(f.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := ParseLinear(f.Args[1])
		if err != nil {
			return nil, err
		}
		// Normalize to "< " or "=" with sides possibly swapped/shifted.
		switch f.Pred {
		case PredGt:
			a, b = b, a // a > b ⟺ b < a
		case PredGe:
			a, b = b, a.AddInt(1) // a ≥ b ⟺ b < a+1
		case PredLe:
			b = b.AddInt(1) // a ≤ b ⟺ a < b+1
		}
		if f.Pred == logic.EqPred {
			d1 := a.Sub(b).AddInt(-1) // a−b−1 < 0 ⟺ a ≤ b
			d2 := b.Sub(a).AddInt(-1)
			if positive {
				return qfAnd(lt(d1.AddInt(0)), lt(d2)), nil
			}
			return qfOr(lt(a.Sub(b)), lt(b.Sub(a))), nil
		}
		diff := a.Sub(b)
		if positive {
			return lt(diff), nil
		}
		// ¬(a < b) ⟺ b ≤ a ⟺ b − a − 1 < 0.
		return lt(diff.Neg().AddInt(-1)), nil
	case PredDvd:
		if len(f.Args) != 2 {
			return nil, fmt.Errorf("presburger: dvd expects 2 arguments")
		}
		k, err := ParseLinear(f.Args[0])
		if err != nil {
			return nil, err
		}
		if !k.IsConst() || k.Const.Sign() <= 0 {
			return nil, fmt.Errorf("presburger: dvd modulus must be a positive numeral, got %v", f.Args[0])
		}
		t, err := ParseLinear(f.Args[1])
		if err != nil {
			return nil, err
		}
		kind := atomDvd
		if !positive {
			kind = atomNdvd
		}
		return qfAtom(kind, t, k.Const), nil
	}
	return nil, fmt.Errorf("presburger: unknown predicate %q", f.Pred)
}

// render converts the internal representation back to a logic formula,
// polling the context at each connective as canonicalize does.
func (e Eliminator) render(f *qf) (*logic.Formula, error) {
	switch f.op {
	case 't':
		return logic.True(), nil
	case 'f':
		return logic.False(), nil
	case '&', '|':
		if err := e.checkCtx(); err != nil {
			return nil, err
		}
		out := make([]*logic.Formula, len(f.sub))
		for i, s := range f.sub {
			g, err := e.render(s)
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
		if f.op == '&' {
			return logic.And(out...), nil
		}
		return logic.Or(out...), nil
	}
	switch f.kind {
	case atomLt:
		return logic.Atom(PredLt, Render(f.t), logic.Const("0")), nil
	case atomDvd:
		return logic.Atom(PredDvd, logic.Const(f.d.String()), Render(f.t)), nil
	default:
		return logic.Not(logic.Atom(PredDvd, logic.Const(f.d.String()), Render(f.t))), nil
	}
}

// eval evaluates the internal representation under an integer environment.
func (f *qf) eval(env map[string]Num) (bool, error) {
	switch f.op {
	case 't':
		return true, nil
	case 'f':
		return false, nil
	case '&':
		for _, s := range f.sub {
			v, err := s.eval(env)
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case '|':
		for _, s := range f.sub {
			v, err := s.eval(env)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	}
	val, err := f.t.Eval(env)
	if err != nil {
		return false, err
	}
	switch f.kind {
	case atomLt:
		return val.Sign() < 0, nil
	case atomDvd:
		return val.Mod(f.d).Sign() == 0, nil
	default:
		return val.Mod(f.d).Sign() != 0, nil
	}
}
