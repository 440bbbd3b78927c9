package logic

// Simplify performs sound propositional simplifications on f:
//
//   - true/false absorption in ∧, ∨, →, ↔, ¬
//   - flattening of nested ∧ and ∨
//   - removal of duplicate conjuncts/disjuncts
//   - x = x rewrites to true
//   - contradictory literal pairs (φ and ¬φ) collapse a conjunction to
//     false and a disjunction to true
//   - vacuous quantifiers (bound variable not free in body) are dropped
//
// Simplification never changes the set of free variables' satisfying
// assignments; it is used to keep quantifier-elimination output readable and
// to shrink intermediate DNFs.
func Simplify(f *Formula) *Formula {
	return f.Map(simplifyNode)
}

func simplifyNode(f *Formula) *Formula {
	switch f.Kind {
	case FNot:
		switch s := f.Sub[0]; s.Kind {
		case FTrue:
			return False()
		case FFalse:
			return True()
		case FNot:
			return s.Sub[0]
		}
		return f
	case FAnd:
		return simplifyJunction(f, FAnd)
	case FOr:
		return simplifyJunction(f, FOr)
	case FImplies:
		a, b := f.Sub[0], f.Sub[1]
		switch {
		case a.Kind == FFalse || b.Kind == FTrue:
			return True()
		case a.Kind == FTrue:
			return b
		case b.Kind == FFalse:
			return simplifyNode(Not(a))
		}
		return f
	case FIff:
		a, b := f.Sub[0], f.Sub[1]
		switch {
		case a.Kind == FTrue:
			return b
		case b.Kind == FTrue:
			return a
		case a.Kind == FFalse:
			return simplifyNode(Not(b))
		case b.Kind == FFalse:
			return simplifyNode(Not(a))
		case a.Equal(b):
			return True()
		}
		return f
	case FAtom:
		if f.IsEq() && f.Args[0].Equal(f.Args[1]) {
			return True()
		}
		return f
	case FExists, FForall:
		body := f.Sub[0]
		switch body.Kind {
		case FTrue:
			return True()
		case FFalse:
			return False()
		}
		if !body.HasFreeVar(f.Var) {
			// The bound variable does not occur: over a nonempty domain the
			// quantifier is vacuous. All domains in this repository are
			// infinite, hence nonempty.
			return body
		}
		return f
	}
	return f
}

func simplifyJunction(f *Formula, kind FKind) *Formula {
	absorber, neutral := FFalse, FTrue
	if kind == FOr {
		absorber, neutral = FTrue, FFalse
	}
	var flat []*Formula
	var collect func(g *Formula) bool // returns false if absorbed
	collect = func(g *Formula) bool {
		switch {
		case g.Kind == absorber:
			return false
		case g.Kind == neutral:
			return true
		case g.Kind == kind:
			for _, s := range g.Sub {
				if !collect(s) {
					return false
				}
			}
			return true
		default:
			flat = append(flat, g)
			return true
		}
	}
	for _, s := range f.Sub {
		if !collect(s) {
			if kind == FAnd {
				return False()
			}
			return True()
		}
	}
	// Deduplicate, keeping first occurrences, and detect complementary
	// pairs: every such pair holds a negation ¬h, so looking up each
	// negation's operand finds them all.
	var seen []*Formula
	var complementary bool
	if len(flat) > keyedJunction {
		seen, complementary = dedupKeyed(flat)
	} else {
		seen, complementary = dedupPairwise(flat)
	}
	if complementary {
		if kind == FAnd {
			return False()
		}
		return True()
	}
	switch len(seen) {
	case 0:
		if kind == FAnd {
			return True()
		}
		return False()
	case 1:
		return seen[0]
	}
	return &Formula{Kind: kind, Sub: seen}
}

// keyedJunction is the width above which a junction is deduplicated
// through a map of canonical keys. Pairwise comparison is quadratic in the
// width: on the ~10⁴-disjunct Cooper output of a finitization over
// dvd(10000, x) it ran for seconds. Narrower junctions keep the pairwise
// loop, which allocates nothing; keying from 17 juncts up added ~210
// allocations to a three-variable finitization's Cooper criterion.
const keyedJunction = 32

func dedupPairwise(flat []*Formula) (seen []*Formula, complementary bool) {
	seen = make([]*Formula, 0, len(flat))
	for _, g := range flat {
		dup := false
		for _, h := range seen {
			if g.Equal(h) {
				dup = true
				break
			}
		}
		if !dup {
			seen = append(seen, g)
		}
	}
	for _, g := range seen {
		if g.Kind != FNot {
			continue
		}
		for _, h := range seen {
			if h.Equal(g.Sub[0]) {
				return seen, true
			}
		}
	}
	return seen, false
}

// dedupKeyed is dedupPairwise in linear time: CanonicalKey is injective
// on structure, so equal keys are Equal formulas.
func dedupKeyed(flat []*Formula) (seen []*Formula, complementary bool) {
	seen = make([]*Formula, 0, len(flat))
	keys := make(map[string]bool, len(flat))
	for _, g := range flat {
		if k := g.CanonicalKey(); !keys[k] {
			keys[k] = true
			seen = append(seen, g)
		}
	}
	for _, g := range seen {
		if g.Kind == FNot && keys[g.Sub[0].CanonicalKey()] {
			return seen, true
		}
	}
	return seen, false
}
