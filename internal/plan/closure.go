package plan

import (
	"context"
	"fmt"

	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
)

// The closure tier compiles a formula into a tree of Go closures over a
// slot-indexed environment. Variables are resolved to integer slots at
// compile time (lexical scoping, shadowing handled statically), constants
// and relations are interned into tables resolved lazily once per
// evaluation, and each atom gets a private scratch buffer, so the per-row
// work is slice indexing and direct calls — none of the generic
// evaluator's map writes, kind switches, or environment save/restore.
//
// Semantics are exactly active-domain evaluation (query.evalIn +
// domain.EvalQF): quantifiers range over the caller's range slice,
// equality compares Value keys, database atoms test relation membership,
// everything else goes to the domain interpretation. The only licensed
// deviations are the plan optimizations: conjunct/disjunct reordering
// (result-preserving on error-free formulas) and existential range
// narrowing (restricting a witness search to values that can possibly
// satisfy a positive database-atom conjunct — sound because any witness
// must appear in that relation's column).

// boolFn evaluates a compiled subformula under an environment.
type boolFn func(*env) (bool, error)

// termFn evaluates a compiled term under an environment.
type termFn func(*env) (domain.Value, error)

// narrowSpec narrows a quantifier or free-variable range to the distinct
// values of one column of a database relation.
type narrowSpec struct {
	rel int // interned relation id
	col int // column position the variable occupies
}

// prog is one closure-compiled formula.
type prog struct {
	vars       []string // sorted free variables; slots 0..len(vars)-1
	nslots     int
	constNames []string
	relNames   []string
	relArity   []int
	scratchLen []int
	narrows    []narrowSpec
	freeNarrow []int // per free var: index into narrows, or -1
	root       boolFn
	notes      []string
	nAtoms     int
}

func (p *prog) describe() string {
	return fmt.Sprintf("%d slots, %d atoms, %d consts, %d relations",
		p.nslots, p.nAtoms, len(p.constNames), len(p.relNames))
}

// env is the per-evaluation state a compiled program runs against.
// Constants, relations, and narrowed ranges resolve lazily on first use
// and stay cached for the rest of the evaluation.
type env struct {
	p       *prog
	slots   []domain.Value
	rng     []domain.Value
	consts  []domain.Value
	rels    []*db.Relation
	narrow  [][]domain.Value
	scratch [][]domain.Value
	dom     domain.Domain
	st      *db.State
	ctx     context.Context
	tick    uint32
}

// poll is the strided cancellation check quantifier loops run — every
// 256th call touches the context, mirroring query.stopCheck.
func (e *env) poll() error {
	if e.ctx == nil {
		return nil
	}
	if e.tick++; e.tick&255 != 0 {
		return nil
	}
	return e.ctx.Err()
}

// constVal resolves an interned constant: database constants through the
// state, domain constants through the domain (stateInterp semantics).
// Lazy so a constant in a short-circuited branch never errors an
// evaluation the generic evaluator would finish.
func (e *env) constVal(i int) (domain.Value, error) {
	if v := e.consts[i]; v != nil {
		return v, nil
	}
	name := e.p.constNames[i]
	var v domain.Value
	var err error
	if e.st != nil && e.st.Scheme().HasConstant(name) {
		v, err = e.st.Constant(name)
	} else {
		v, err = e.dom.ConstValue(name)
	}
	if err != nil {
		return nil, err
	}
	e.consts[i] = v
	return v, nil
}

// relVal resolves an interned relation from the state.
func (e *env) relVal(i int) (*db.Relation, error) {
	if r := e.rels[i]; r != nil {
		return r, nil
	}
	r, err := e.st.Relation(e.p.relNames[i])
	if err != nil {
		return nil, err
	}
	e.rels[i] = r
	return r, nil
}

// narrowVals materializes a narrowed range: the distinct values of one
// relation column, computed once per evaluation.
func (e *env) narrowVals(i int) ([]domain.Value, error) {
	if v := e.narrow[i]; v != nil {
		return v, nil
	}
	ns := e.p.narrows[i]
	rel, err := e.relVal(ns.rel)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, rel.Len())
	vals := make([]domain.Value, 0, rel.Len())
	for _, t := range rel.Tuples() {
		v := t[ns.col]
		if !seen[v.Key()] {
			seen[v.Key()] = true
			vals = append(vals, v)
		}
	}
	e.narrow[i] = vals
	return vals, nil
}

// newEnv builds a fresh environment for one evaluation of the program.
func (p *prog) newEnv(ctx context.Context, dom domain.Domain, st *db.State, rng []domain.Value) *env {
	e := &env{
		p:     p,
		slots: make([]domain.Value, p.nslots),
		rng:   rng,
		dom:   dom,
		st:    st,
		ctx:   ctx,
	}
	if n := len(p.constNames); n > 0 {
		e.consts = make([]domain.Value, n)
	}
	if n := len(p.relNames); n > 0 {
		e.rels = make([]*db.Relation, n)
	}
	if n := len(p.narrows); n > 0 {
		e.narrow = make([][]domain.Value, n)
	}
	if n := len(p.scratchLen); n > 0 {
		e.scratch = make([][]domain.Value, n)
		for i, ln := range p.scratchLen {
			e.scratch[i] = make([]domain.Value, ln)
		}
	}
	return e
}

// ccomp is the closure compiler's state.
type ccomp struct {
	scheme *db.Scheme
	p      *prog
	scope  []scopeBinding // innermost last
	consts map[string]int
	rels   map[string]int

	narrowed  int
	reordered int
}

type scopeBinding struct {
	name string
	slot int
}

// compileClosure lowers a formula to a closure program.
func compileClosure(scheme *db.Scheme, f *logic.Formula) (*prog, error) {
	c := &ccomp{
		scheme: scheme,
		p:      &prog{vars: f.FreeVars()},
		consts: map[string]int{},
		rels:   map[string]int{},
	}
	for i, v := range c.p.vars {
		c.scope = append(c.scope, scopeBinding{name: v, slot: i})
	}
	c.p.nslots = len(c.p.vars)

	root, err := c.compile(f)
	if err != nil {
		return nil, err
	}
	c.p.root = root

	// Free-variable range narrowing: a free variable occurring directly in
	// a positive database-atom conjunct can only take values from that
	// relation's column.
	c.p.freeNarrow = make([]int, len(c.p.vars))
	for i, v := range c.p.vars {
		c.p.freeNarrow[i] = c.narrowFor(conjunctsOf(f), v)
	}

	if c.narrowed > 0 {
		c.p.notes = append(c.p.notes, fmt.Sprintf("range narrowing ×%d", c.narrowed))
	}
	if c.reordered > 0 {
		c.p.notes = append(c.p.notes, fmt.Sprintf("conjunct ordering ×%d", c.reordered))
	}
	return c.p, nil
}

// resolve returns the slot of a variable, innermost binding first.
func (c *ccomp) resolve(name string) (int, bool) {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == name {
			return c.scope[i].slot, true
		}
	}
	return 0, false
}

func (c *ccomp) internConst(name string) int {
	if i, ok := c.consts[name]; ok {
		return i
	}
	i := len(c.p.constNames)
	c.consts[name] = i
	c.p.constNames = append(c.p.constNames, name)
	return i
}

func (c *ccomp) internRel(name string, arity int) int {
	if i, ok := c.rels[name]; ok {
		return i
	}
	i := len(c.p.relNames)
	c.rels[name] = i
	c.p.relNames = append(c.p.relNames, name)
	c.p.relArity = append(c.p.relArity, arity)
	return i
}

func (c *ccomp) newScratch(n int) int {
	c.p.scratchLen = append(c.p.scratchLen, n)
	return len(c.p.scratchLen) - 1
}

// compileTerm lowers a term to a closure.
func (c *ccomp) compileTerm(t logic.Term) (termFn, error) {
	switch t.Kind {
	case logic.TVar:
		slot, ok := c.resolve(t.Name)
		if !ok {
			// The generic evaluator would report the same unbound variable
			// at runtime; refuse at compile time and let it.
			return nil, fmt.Errorf("plan: unbound variable %q", t.Name)
		}
		return func(e *env) (domain.Value, error) { return e.slots[slot], nil }, nil
	case logic.TConst:
		id := c.internConst(t.Name)
		return func(e *env) (domain.Value, error) { return e.constVal(id) }, nil
	case logic.TApp:
		args := make([]termFn, len(t.Args))
		for i, a := range t.Args {
			fn, err := c.compileTerm(a)
			if err != nil {
				return nil, err
			}
			args[i] = fn
		}
		name := t.Name
		buf := c.newScratch(len(args))
		return func(e *env) (domain.Value, error) {
			vals := e.scratch[buf]
			for i, fn := range args {
				v, err := fn(e)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return e.dom.Func(name, vals)
		}, nil
	}
	return nil, fmt.Errorf("plan: unknown term kind %d", t.Kind)
}

// compile lowers a formula node.
func (c *ccomp) compile(f *logic.Formula) (boolFn, error) {
	switch f.Kind {
	case logic.FTrue:
		return func(*env) (bool, error) { return true, nil }, nil
	case logic.FFalse:
		return func(*env) (bool, error) { return false, nil }, nil

	case logic.FAtom:
		return c.compileAtom(f)

	case logic.FNot:
		sub, err := c.compile(f.Sub[0])
		if err != nil {
			return nil, err
		}
		return func(e *env) (bool, error) {
			v, err := sub(e)
			return !v, err
		}, nil

	case logic.FAnd, logic.FOr:
		order := c.orderChildren(f)
		subs := make([]boolFn, len(order))
		for i, idx := range order {
			fn, err := c.compile(f.Sub[idx])
			if err != nil {
				return nil, err
			}
			subs[i] = fn
		}
		if f.Kind == logic.FAnd {
			return func(e *env) (bool, error) {
				for _, fn := range subs {
					v, err := fn(e)
					if err != nil || !v {
						return false, err
					}
				}
				return true, nil
			}, nil
		}
		return func(e *env) (bool, error) {
			for _, fn := range subs {
				v, err := fn(e)
				if err != nil {
					return false, err
				}
				if v {
					return true, nil
				}
			}
			return false, nil
		}, nil

	case logic.FImplies:
		a, err := c.compile(f.Sub[0])
		if err != nil {
			return nil, err
		}
		b, err := c.compile(f.Sub[1])
		if err != nil {
			return nil, err
		}
		return func(e *env) (bool, error) {
			va, err := a(e)
			if err != nil {
				return false, err
			}
			if !va {
				return true, nil
			}
			return b(e)
		}, nil

	case logic.FIff:
		a, err := c.compile(f.Sub[0])
		if err != nil {
			return nil, err
		}
		b, err := c.compile(f.Sub[1])
		if err != nil {
			return nil, err
		}
		return func(e *env) (bool, error) {
			va, err := a(e)
			if err != nil {
				return false, err
			}
			vb, err := b(e)
			return va == vb, err
		}, nil

	case logic.FExists, logic.FForall:
		slot := c.p.nslots
		c.p.nslots++
		c.scope = append(c.scope, scopeBinding{name: f.Var, slot: slot})
		body, err := c.compile(f.Sub[0])
		c.scope = c.scope[:len(c.scope)-1]
		if err != nil {
			return nil, err
		}
		// Existential witnesses narrow to a positive database-atom column;
		// universal quantification must sweep the whole range.
		narrow := -1
		if f.Kind == logic.FExists {
			narrow = c.narrowFor(conjunctsOf(f.Sub[0]), f.Var)
		}
		exists := f.Kind == logic.FExists
		return func(e *env) (bool, error) {
			cands := e.rng
			if narrow >= 0 {
				var err error
				if cands, err = e.narrowVals(narrow); err != nil {
					return false, err
				}
			}
			for _, v := range cands {
				if err := e.poll(); err != nil {
					return false, err
				}
				e.slots[slot] = v
				r, err := body(e)
				if err != nil {
					return false, err
				}
				if r == exists {
					return exists, nil
				}
			}
			return !exists, nil
		}, nil
	}
	return nil, fmt.Errorf("plan: unknown formula kind %d", f.Kind)
}

// compileAtom lowers equality, database-relation, and domain-predicate
// atoms, mirroring domain.EvalQF and query's state interpretation.
func (c *ccomp) compileAtom(f *logic.Formula) (boolFn, error) {
	c.p.nAtoms++
	if f.Pred == logic.EqPred && len(f.Args) == 2 {
		a, err := c.compileTerm(f.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := c.compileTerm(f.Args[1])
		if err != nil {
			return nil, err
		}
		return func(e *env) (bool, error) {
			va, err := a(e)
			if err != nil {
				return false, err
			}
			vb, err := b(e)
			if err != nil {
				return false, err
			}
			return domain.Equal(va, vb), nil
		}, nil
	}

	args := make([]termFn, len(f.Args))
	for i, t := range f.Args {
		fn, err := c.compileTerm(t)
		if err != nil {
			return nil, err
		}
		args[i] = fn
	}
	buf := c.newScratch(len(args))

	if c.scheme != nil {
		if arity, ok := c.scheme.Relations[f.Pred]; ok {
			if len(f.Args) != arity {
				return nil, fmt.Errorf("plan: relation %s expects %d arguments, got %d", f.Pred, arity, len(f.Args))
			}
			id := c.internRel(f.Pred, arity)
			return func(e *env) (bool, error) {
				rel, err := e.relVal(id)
				if err != nil {
					return false, err
				}
				vals := e.scratch[buf]
				for i, fn := range args {
					v, err := fn(e)
					if err != nil {
						return false, err
					}
					vals[i] = v
				}
				return rel.Has(db.Tuple(vals)), nil
			}, nil
		}
	}

	name := f.Pred
	return func(e *env) (bool, error) {
		vals := e.scratch[buf]
		for i, fn := range args {
			v, err := fn(e)
			if err != nil {
				return false, err
			}
			vals[i] = v
		}
		return e.dom.Pred(name, vals)
	}, nil
}

// conjunctsOf views a formula as its top-level conjuncts.
func conjunctsOf(f *logic.Formula) []*logic.Formula {
	if f.Kind == logic.FAnd {
		return f.Sub
	}
	return []*logic.Formula{f}
}

// narrowFor finds a narrowing for a variable among conjuncts: a database
// atom with the variable as a direct argument bounds the variable to that
// relation's column. Returns an index into p.narrows, or -1. Only atoms
// at the top conjunct level are considered — below a quantifier the name
// could be shadowed, and below a negation or disjunction the atom does
// not bound the variable.
func (c *ccomp) narrowFor(conjuncts []*logic.Formula, v string) int {
	if c.scheme == nil {
		return -1
	}
	for _, g := range conjuncts {
		if g.Kind != logic.FAtom {
			continue
		}
		arity, ok := c.scheme.Relations[g.Pred]
		if !ok || len(g.Args) != arity {
			continue
		}
		for col, t := range g.Args {
			if t.IsVar(v) {
				id := c.internRel(g.Pred, arity)
				c.p.narrows = append(c.p.narrows, narrowSpec{rel: id, col: col})
				c.narrowed++
				return len(c.p.narrows) - 1
			}
		}
	}
	return -1
}

// orderChildren returns the evaluation order for And/Or children:
// quantifier-free subformulas first, then by static cost estimate.
// Short-circuit results are order-independent on error-free formulas, so
// reordering preserves answers.
func (c *ccomp) orderChildren(f *logic.Formula) []int {
	n := len(f.Sub)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if n < 2 {
		return order
	}
	costs := make([]int64, n)
	for i, s := range f.Sub {
		costs[i] = staticCost(s)
	}
	// Stable sort by (quantifier-free first, cost).
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			swap := costs[a] > costs[b]
			if qa, qb := hasQuantifier(f.Sub[a]), hasQuantifier(f.Sub[b]); qa != qb {
				swap = qa
			}
			if !swap {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	for i := range order {
		if order[i] != i {
			c.reordered++
			break
		}
	}
	return order
}

// staticCost estimates evaluation cost: atoms are unit, quantifiers
// multiply by an assumed range.
func staticCost(f *logic.Formula) int64 {
	const assumedRange = 50
	switch f.Kind {
	case logic.FTrue, logic.FFalse:
		return 0
	case logic.FAtom:
		return 1
	case logic.FNot:
		return staticCost(f.Sub[0])
	case logic.FExists, logic.FForall:
		return assumedRange * (1 + staticCost(f.Sub[0]))
	default:
		var sum int64
		for _, s := range f.Sub {
			sum += staticCost(s)
		}
		return sum
	}
}

func hasQuantifier(f *logic.Formula) bool {
	if f.Kind == logic.FExists || f.Kind == logic.FForall {
		return true
	}
	for _, s := range f.Sub {
		if hasQuantifier(s) {
			return true
		}
	}
	return false
}
