package algebra

import (
	"fmt"

	"repro/internal/db"
	"repro/internal/logic"
)

// Compile translates a safe-range calculus formula into an algebra plan
// whose columns are the formula's free variables (sorted). The translation
// follows the classical recipe:
//
//   - database atoms scan their relation, select repeated variables and
//     constants, and project to variables;
//   - conjunctions natural-join their positive parts, then apply equality
//     conjuncts (as selections or column extensions), then domain-predicate
//     conjuncts as selections, then negated parts as guarded differences
//     E − (E ⋈ G);
//   - disjunctions with equal free variables become unions;
//   - ∃x projects x away.
//
// Universal quantifiers are handled by the classical ¬∃¬ rewrite applied
// internally: a conjunct ∀x φ compiles as the guarded difference for
// ¬∃x ¬φ against the conjunction's generators (correlated bodies are
// compiled seeded with the guard plan, so free variables of φ ranged by
// the surrounding conjunction stay ranged). Compile therefore accepts the
// same fragment whether the caller writes ∀ or ¬∃¬; only genuinely
// non-safe-range input — a universal or negation whose free variables no
// generator ranges — is rejected with an explanatory error.
func Compile(scheme *db.Scheme, f *logic.Formula) (Expr, error) {
	c := &compiler{scheme: scheme}
	return c.compile(logic.NNF(f))
}

type compiler struct {
	scheme *db.Scheme
	tmp    int
}

func (c *compiler) fresh() string {
	c.tmp++
	return fmt.Sprintf("_t%d", c.tmp)
}

func (c *compiler) compile(f *logic.Formula) (Expr, error) {
	switch f.Kind {
	case logic.FTrue:
		return &Lit{Cols: nil, Rows: [][]string{{}}}, nil
	case logic.FFalse:
		return &Lit{Cols: nil, Rows: nil}, nil
	case logic.FAtom:
		return c.compileAtom(f)
	case logic.FAnd:
		return c.compileAnd(f.Sub)
	case logic.FOr:
		return c.compileOr(f.Sub)
	case logic.FExists:
		inner, err := c.compile(f.Sub[0])
		if err != nil {
			return nil, err
		}
		cols := removeCol(inner.Columns(), f.Var)
		return &Project{In: inner, Cols: cols}, nil
	case logic.FNot, logic.FForall:
		// A bare negation or universal compiles as a one-conjunct
		// conjunction: the guarded-difference machinery admits it when it is
		// closed (guard = the empty-schema unit row) and produces the
		// explanatory unguarded-variable error otherwise.
		return c.compileAnd([]*logic.Formula{f})
	}
	return nil, fmt.Errorf("algebra: cannot compile %v", f)
}

// compileAtom handles a positive atom in relation position.
func (c *compiler) compileAtom(f *logic.Formula) (Expr, error) {
	arity, isDB := c.scheme.Relations[f.Pred]
	if !isDB {
		return nil, fmt.Errorf("algebra: atom %v does not range its variables (domain predicates select, they do not generate)", f)
	}
	if len(f.Args) != arity {
		return nil, fmt.Errorf("algebra: %s expects %d arguments, got %d", f.Pred, arity, len(f.Args))
	}
	cols := make([]string, arity)
	var conds []Cond
	seen := map[string]string{} // variable -> first column holding it
	var keep []string
	for i, t := range f.Args {
		switch t.Kind {
		case logic.TVar:
			if first, dup := seen[t.Name]; dup {
				col := c.fresh()
				cols[i] = col
				conds = append(conds, CondEq{A: ColArg(col), B: ColArg(first)})
			} else {
				cols[i] = t.Name
				seen[t.Name] = t.Name
				keep = append(keep, t.Name)
			}
		case logic.TConst:
			col := c.fresh()
			cols[i] = col
			conds = append(conds, CondEq{A: ColArg(col), B: ConstArg(t.Name)})
		default:
			return nil, fmt.Errorf("algebra: function terms in database atoms are not supported: %v", t)
		}
	}
	var e Expr = &Base{Rel: f.Pred, Cols: cols}
	if len(conds) > 0 {
		e = &Select{In: e, Cond: CondAnd{Cs: conds}}
	}
	return &Project{In: e, Cols: logic.SortedUnique(keep)}, nil
}

// compileAnd splits a conjunction into generators (positive DB-rooted
// subformulas), equalities, domain-predicate selections, and guarded
// negations. Universal conjuncts ∀x φ join the negations as ∃x ¬φ — the
// ¬∃¬ rewrite the doc comment on Compile describes.
func (c *compiler) compileAnd(subs []*logic.Formula) (Expr, error) {
	return c.compileAndFrom(nil, subs)
}

// compileAndFrom is compileAnd seeded with an optional already-compiled
// guard plan whose columns count as ranged: the correlated case of a
// negation or universal body, where the surrounding conjunction ranges
// variables the body mentions free.
func (c *compiler) compileAndFrom(seed Expr, subs []*logic.Formula) (Expr, error) {
	var generators []*logic.Formula
	var equalities []*logic.Formula
	var domainSel []*logic.Formula // positive or negated domain atoms
	var negations []*logic.Formula // negated DB-rooted subformulas

	for _, s := range subs {
		switch {
		case s.Kind == logic.FAtom && s.IsEq():
			equalities = append(equalities, s)
		case s.Kind == logic.FAtom:
			if _, isDB := c.scheme.Relations[s.Pred]; isDB {
				generators = append(generators, s)
			} else {
				domainSel = append(domainSel, s)
			}
		case s.Kind == logic.FNot && s.Sub[0].Kind == logic.FAtom && s.Sub[0].IsEq():
			domainSel = append(domainSel, s)
		case s.Kind == logic.FNot && s.Sub[0].Kind == logic.FAtom:
			if _, isDB := c.scheme.Relations[s.Sub[0].Pred]; isDB {
				negations = append(negations, s.Sub[0])
			} else {
				domainSel = append(domainSel, s)
			}
		case s.Kind == logic.FNot:
			negations = append(negations, s.Sub[0])
		case s.Kind == logic.FForall:
			// ∀x φ ≡ ¬∃x ¬φ: a guarded difference against the generators.
			negations = append(negations, logic.Exists(s.Var, logic.NNF(logic.Not(s.Sub[0]))))
		default:
			generators = append(generators, s)
		}
	}

	// Generators, to a fixpoint: each compiles standalone when it is
	// self-ranged; one that is not (a disjunction or quantified body
	// mentioning variables other conjuncts range) retries guarded by the
	// plan built so far, so correlated subformulas compile once their
	// guards are in place. A guarded body's rows extend the plan's, so it
	// replaces the plan instead of joining it.
	plan := seed
	pendingGens := append([]*logic.Formula(nil), generators...)
	for len(pendingGens) > 0 {
		progressed := false
		var still []*logic.Formula
		var lastErr error
		for _, g := range pendingGens {
			e, err := c.compile(g)
			switch {
			case err == nil && plan == nil:
				plan = e
			case err == nil:
				plan = &Join{L: plan, R: e}
			case plan != nil:
				var body Expr
				if _, body, err = c.seeded(plan, g); err == nil {
					plan = &Guarded{Guard: plan, Body: body}
				}
			}
			if err != nil {
				lastErr = err
				still = append(still, g)
				continue
			}
			progressed = true
		}
		if !progressed {
			return nil, lastErr
		}
		pendingGens = still
	}
	if plan == nil {
		plan = &Lit{Cols: nil, Rows: [][]string{{}}}
	}
	// have is the plan's column set from here on, kept as equalities add
	// columns: the plan grows into a chain, and reading its columns back
	// per conjunct would walk the whole chain each time.
	have := map[string]bool{}
	for _, col := range plan.Columns() {
		have[col] = true
	}

	// Equalities, as a worklist: each either selects (both sides
	// available), extends (one variable side available), or introduces a
	// constant column. One that can do none yet waits for a column it
	// names, so no order of the conjuncts costs a pass per equality.
	waiting := map[string][]*logic.Formula{}
	applied := map[*logic.Formula]bool{}
	work := append([]*logic.Formula(nil), equalities...)
	for len(work) > 0 {
		eq := work[0]
		work = work[1:]
		if applied[eq] {
			continue
		}
		next, ok, err := c.applyEquality(plan, have, eq)
		if err != nil {
			return nil, err
		}
		for _, t := range eq.Args {
			switch {
			case t.Kind != logic.TVar:
			case !ok && !have[t.Name]:
				waiting[t.Name] = append(waiting[t.Name], eq)
			case ok && len(waiting[t.Name]) > 0:
				work = append(work, waiting[t.Name]...)
				delete(waiting, t.Name)
			}
		}
		if ok {
			plan, applied[eq] = next, true
		}
	}
	var still []*logic.Formula
	for _, eq := range equalities {
		if !applied[eq] {
			still = append(still, eq)
		}
	}
	if len(still) > 0 {
		return nil, fmt.Errorf("algebra: equalities %v leave variables unranged", still)
	}

	// Domain selections.
	for _, s := range domainSel {
		cond, err := c.atomCond(s, have)
		if err != nil {
			return nil, err
		}
		plan = &Select{In: plan, Cond: cond}
	}

	// Guarded negations: E − π_E(E ⋈ G) as the antijoin E ▷ G, requiring
	// free(G) ⊆ cols(E). A body that does not compile standalone (its free
	// variables are ranged by the conjunction, not by itself) compiles
	// guarded by the plan; a free variable nothing ranges stays an error.
	for _, n := range negations {
		for _, v := range n.FreeVars() {
			if !have[v] {
				return nil, fmt.Errorf("algebra: negation of %v is unguarded on %q", n, v)
			}
		}
		if g, err := c.compile(n); err == nil {
			plan = &AntiJoin{L: plan, R: g}
			continue
		}
		seed, body, err := c.seeded(plan, n)
		if err != nil {
			return nil, err
		}
		plan = &Guarded{Guard: plan, Body: &AntiJoin{L: seed, R: body}}
	}
	return plan, nil
}

// seeded compiles f, whose free variables guard ranges but f alone does
// not, over a Seed leaf standing for guard: a Guarded node binds the leaf
// to guard's table, so the guard evaluates once however often the body
// reads it. Every row of the body extends a guard row.
func (c *compiler) seeded(guard Expr, f *logic.Formula) (*Seed, Expr, error) {
	seed := &Seed{Cols: guard.Columns()}
	body, err := c.compileSeeded(seed, f)
	return seed, body, err
}

// compileSeeded compiles a formula in a context where the columns of an
// already-compiled guard plan are ranged: conjunctions start from the
// seed, disjuncts union over it (which makes their columns uniform), and
// anything else becomes a one-conjunct seeded conjunction so domain
// predicates select over the seed.
func (c *compiler) compileSeeded(seed Expr, f *logic.Formula) (Expr, error) {
	switch f.Kind {
	case logic.FExists:
		// A bound variable that collides with a seed column would join
		// against the guard instead of quantifying independently — rename
		// it before compiling the body.
		v, body := f.Var, f.Sub[0]
		for _, col := range seed.Columns() {
			if col == v {
				nv := freshAvoiding(v, seed.Columns(), body)
				body = logic.Subst(body, v, logic.Var(nv))
				v = nv
				break
			}
		}
		inner, err := c.compileSeeded(seed, body)
		if err != nil {
			return nil, err
		}
		return &Project{In: inner, Cols: removeCol(inner.Columns(), v)}, nil
	case logic.FAnd:
		return c.compileAndFrom(seed, f.Sub)
	case logic.FOr:
		return unionAll(f.Sub, func(s *logic.Formula) (Expr, error) {
			return c.compileSeeded(seed, s)
		})
	default:
		return c.compileAndFrom(seed, []*logic.Formula{f})
	}
}

// applyEquality incorporates one equality conjunct into the plan, if
// possible at this stage; have is the plan's column set, and gains the
// column an equality adds.
func (c *compiler) applyEquality(plan Expr, have map[string]bool, eq *logic.Formula) (Expr, bool, error) {
	a, b := eq.Args[0], eq.Args[1]
	avail := func(t logic.Term) bool {
		return t.Kind == logic.TConst || (t.Kind == logic.TVar && have[t.Name])
	}
	arg := func(t logic.Term) Arg {
		if t.Kind == logic.TConst {
			return ConstArg(t.Name)
		}
		return ColArg(t.Name)
	}
	if a.Kind == logic.TApp || b.Kind == logic.TApp {
		return nil, false, fmt.Errorf("algebra: function terms are not supported in equalities: %v", eq)
	}
	switch {
	case avail(a) && avail(b):
		return &Select{In: plan, Cond: CondEq{A: arg(a), B: arg(b)}}, true, nil
	case avail(a) && b.Kind == logic.TVar:
		have[b.Name] = true
		if a.Kind == logic.TVar {
			return &Extend{In: plan, NewCol: b.Name, FromCol: a.Name}, true, nil
		}
		// b := constant a — a one-row literal joined in.
		return &Join{L: plan, R: &Lit{Cols: []string{b.Name}, Rows: [][]string{{a.Name}}}}, true, nil
	case avail(b) && a.Kind == logic.TVar:
		have[a.Name] = true
		if b.Kind == logic.TVar {
			return &Extend{In: plan, NewCol: a.Name, FromCol: b.Name}, true, nil
		}
		return &Join{L: plan, R: &Lit{Cols: []string{a.Name}, Rows: [][]string{{b.Name}}}}, true, nil
	}
	return nil, false, nil
}

// atomCond renders a (possibly negated) atom as a selection condition over
// the available columns have.
func (c *compiler) atomCond(f *logic.Formula, have map[string]bool) (Cond, error) {
	atom, positive := logic.LiteralAtom(f)
	args := make([]Arg, len(atom.Args))
	for i, t := range atom.Args {
		switch t.Kind {
		case logic.TVar:
			if !have[t.Name] {
				return nil, fmt.Errorf("algebra: selection %v on unranged variable %q", f, t.Name)
			}
			args[i] = ColArg(t.Name)
		case logic.TConst:
			args[i] = ConstArg(t.Name)
		default:
			return nil, fmt.Errorf("algebra: function terms in selections are not supported: %v", t)
		}
	}
	var cond Cond
	if atom.IsEq() {
		cond = CondEq{A: args[0], B: args[1]}
	} else {
		cond = CondPred{Pred: atom.Pred, Args: args}
	}
	if !positive {
		cond = CondNot{C: cond}
	}
	return cond, nil
}

// compileOr unions disjuncts with identical free variables.
func (c *compiler) compileOr(subs []*logic.Formula) (Expr, error) {
	return unionAll(subs, c.compile)
}

// unionAll unions the plans compile makes of subs, which must have the
// same free variables; no subs is the empty relation. The union chain is
// left-deep and its columns are its first disjunct's, read once: asking
// the growing chain would walk its whole left spine per disjunct.
func unionAll(subs []*logic.Formula, compile func(*logic.Formula) (Expr, error)) (Expr, error) {
	var plan Expr
	var cols []string
	for _, s := range subs {
		e, err := compile(s)
		if err != nil {
			return nil, err
		}
		if plan == nil {
			plan, cols = e, e.Columns()
			continue
		}
		if !sameCols(cols, e.Columns()) {
			return nil, fmt.Errorf("algebra: disjuncts with different free variables (%v vs %v) are not safe-range",
				cols, e.Columns())
		}
		plan = &Union{L: plan, R: e}
	}
	if plan == nil {
		return &Lit{Cols: nil, Rows: nil}, nil
	}
	return plan, nil
}

// freshAvoiding returns a variable name derived from hint that collides
// neither with the given columns nor with any variable (free or bound)
// of f.
func freshAvoiding(hint string, cols []string, f *logic.Formula) string {
	used := map[string]bool{}
	for _, c := range cols {
		used[c] = true
	}
	for _, v := range f.FreeVars() {
		used[v] = true
	}
	f.Walk(func(g *logic.Formula) {
		if g.Kind == logic.FExists || g.Kind == logic.FForall {
			used[g.Var] = true
		}
	})
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s_%d", hint, i)
		if !used[name] {
			return name
		}
	}
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := map[string]bool{}
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		if !set[c] {
			return false
		}
	}
	return true
}

func removeCol(cols []string, name string) []string {
	var out []string
	for _, c := range cols {
		if c != name {
			out = append(out, c)
		}
	}
	return out
}
