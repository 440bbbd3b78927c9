// Package algebra implements a relational algebra — the evaluation backend
// Codd's relational completeness theorem pairs with the calculus — and a
// compiler from safe-range calculus formulas to algebra expressions.
//
// The paper's positive syntaxes (active-domain restriction, finitization,
// safe range) matter in practice because their members evaluate by plain
// algebra plans like the ones here: every safe-range query compiles, every
// compiled plan computes the natural-semantics answer, and tests cross-check
// plans against the calculus evaluator.
package algebra

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/db"
	"repro/internal/domain"
)

// Ctx supplies an expression evaluation with a database state and the
// domain interpretation (for constants and domain predicates).
type Ctx struct {
	St  *db.State
	Dom domain.Domain
	// Context, when non-nil, cancels the evaluation: it is checked before
	// and after each operator input evaluates, so a plan that would run
	// past its request's deadline stops there with the context's error.
	Context context.Context
	// seeds holds the guard tables of the Guarded nodes under evaluation,
	// innermost last.
	seeds []*Table
	// consts holds the constants resolved so far, so each is resolved
	// once per evaluation rather than once per row.
	consts []resolvedConst
	// args is the argument buffer CondPred fills for every row.
	args []domain.Value
}

type resolvedConst struct {
	name string
	v    domain.Value
}

// eval evaluates an operator's input and checks for cancellation before
// and after. The checks before all run on the way down, ahead of any
// work; the checks after bound the work between two checks to one
// operator's.
func (c *Ctx) eval(e Expr) (*Table, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	t, err := e.Eval(c)
	if err != nil {
		return nil, err
	}
	if err := c.err(); err != nil {
		return nil, err
	}
	return t, nil
}

// err reports the evaluation's cancellation.
func (c *Ctx) err() error {
	if c.Context == nil {
		return nil
	}
	return c.Context.Err()
}

// constValue resolves a constant name: database constants through the
// state, everything else through the domain.
func (c *Ctx) constValue(name string) (domain.Value, error) {
	for _, k := range c.consts {
		if k.name == name {
			return k.v, nil
		}
	}
	var v domain.Value
	var err error
	if c.St.Scheme().HasConstant(name) {
		v, err = c.St.Constant(name)
	} else {
		v, err = c.Dom.ConstValue(name)
	}
	if err != nil {
		return nil, err
	}
	c.consts = append(c.consts, resolvedConst{name, v})
	return v, nil
}

// Table is a named-column relation, the value of an algebra expression.
type Table struct {
	Cols []string
	rows map[string][]domain.Value
	// sorted is an optional prebuilt Rows() snapshot, aligned with rows;
	// it is shared by memoized base tables and dropped on mutation.
	sorted [][]domain.Value
	// shared marks rows (and sorted) as borrowed from a state memo: the
	// first Add copies them instead of mutating the shared view.
	shared bool
}

// NewTable returns an empty table with the given columns.
func NewTable(cols []string) *Table {
	return &Table{Cols: append([]string(nil), cols...), rows: map[string][]domain.Value{}}
}

// Add inserts a row. The row itself is stored, not a copy: the operators
// add rows they built or rows of their inputs, and no table ever mutates
// a stored row, so callers must not mutate row afterwards either.
func (t *Table) Add(row []domain.Value) error {
	if len(row) != len(t.Cols) {
		return fmt.Errorf("algebra: row width %d, table width %d", len(row), len(t.Cols))
	}
	if t.shared {
		rows := make(map[string][]domain.Value, len(t.rows)+1)
		for k, v := range t.rows {
			rows[k] = v
		}
		t.rows = rows
		t.shared = false
	}
	t.sorted = nil
	t.rows[db.Tuple(row).Key()] = row
	return nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Rows returns the rows sorted by key. Callers must not mutate the
// returned rows (they alias the table's storage, as they always have).
func (t *Table) Rows() [][]domain.Value {
	if t.sorted != nil {
		return t.sorted
	}
	keys := make([]string, 0, len(t.rows))
	for k := range t.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]domain.Value, len(keys))
	for i, k := range keys {
		out[i] = t.rows[k]
	}
	return out
}

// Has reports row membership.
func (t *Table) Has(row []domain.Value) bool {
	var buf [64]byte
	_, ok := t.rows[string(db.Tuple(row).AppendKey(buf[:0]))]
	return ok
}

// colIndex maps column names to positions.
func (t *Table) colIndex() map[string]int {
	idx := make(map[string]int, len(t.Cols))
	for i, c := range t.Cols {
		idx[c] = i
	}
	return idx
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("(" + strings.Join(t.Cols, ", ") + ")")
	for _, row := range t.Rows() {
		b.WriteString(" " + db.Tuple(row).String())
	}
	return b.String()
}

// Expr is a relational algebra expression.
type Expr interface {
	// Columns returns the output column names in order.
	Columns() []string
	// Eval computes the expression's value.
	Eval(ctx *Ctx) (*Table, error)
	// String renders the plan.
	String() string
}

// Base scans a database relation, naming its columns.
type Base struct {
	Rel  string
	Cols []string
}

// Columns implements Expr.
func (b *Base) Columns() []string { return b.Cols }

// baseSnapshot is a relation materialized as table storage, memoized on
// the state so every query over an unchanged state shares one copy.
type baseSnapshot struct {
	rows   map[string][]domain.Value
	sorted [][]domain.Value
}

// Eval implements Expr. The row storage is memoized per relation on the
// state (column names differ per query, the rows do not), so a workload
// that runs many queries against one state — a batch request, a probe
// loop — materializes and sorts each base relation once. The returned
// table copies the shared storage on its first Add.
func (b *Base) Eval(ctx *Ctx) (*Table, error) {
	rel, err := ctx.St.Relation(b.Rel)
	if err != nil {
		return nil, err
	}
	if rel.Arity() != len(b.Cols) {
		return nil, fmt.Errorf("algebra: %s has arity %d, got %d column names", b.Rel, rel.Arity(), len(b.Cols))
	}
	if err := distinctCols(b.Cols); err != nil {
		return nil, err
	}
	snap := ctx.St.Memo("algebra.base:"+b.Rel, rel.Version(), func() any {
		// The relation's rows and keys are shared, not copied: neither
		// the relation nor any table mutates a stored row.
		keys, tuples := rel.KeyedTuples()
		s := &baseSnapshot{
			rows:   make(map[string][]domain.Value, len(tuples)),
			sorted: make([][]domain.Value, len(tuples)),
		}
		for i, t := range tuples {
			s.rows[keys[i]] = t
			s.sorted[i] = t
		}
		return s
	}).(*baseSnapshot)
	return &Table{
		Cols:   append([]string(nil), b.Cols...),
		rows:   snap.rows,
		sorted: snap.sorted,
		shared: true,
	}, nil
}

// String implements Expr.
func (b *Base) String() string {
	return fmt.Sprintf("%s(%s)", b.Rel, strings.Join(b.Cols, ","))
}

// Lit is a literal table: constant rows given by constant names, resolved
// at evaluation time.
type Lit struct {
	Cols []string
	Rows [][]string
}

// Columns implements Expr.
func (l *Lit) Columns() []string { return l.Cols }

// Eval implements Expr.
func (l *Lit) Eval(ctx *Ctx) (*Table, error) {
	if err := distinctCols(l.Cols); err != nil {
		return nil, err
	}
	out := NewTable(l.Cols)
	for _, names := range l.Rows {
		if len(names) != len(l.Cols) {
			return nil, fmt.Errorf("algebra: literal row width mismatch")
		}
		row := make([]domain.Value, len(names))
		for i, n := range names {
			v, err := ctx.constValue(n)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		if err := out.Add(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String implements Expr.
func (l *Lit) String() string {
	return fmt.Sprintf("lit(%s)x%d", strings.Join(l.Cols, ","), len(l.Rows))
}

// Select filters rows by a condition.
type Select struct {
	In   Expr
	Cond Cond
}

// Columns implements Expr.
func (s *Select) Columns() []string { return s.In.Columns() }

// Eval implements Expr.
func (s *Select) Eval(ctx *Ctx) (*Table, error) {
	in, err := ctx.eval(s.In)
	if err != nil {
		return nil, err
	}
	idx := in.colIndex()
	out := NewTable(in.Cols)
	for _, row := range in.Rows() {
		ok, err := s.Cond.Holds(ctx, idx, row)
		if err != nil {
			return nil, err
		}
		if ok {
			if err := out.Add(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// String implements Expr.
func (s *Select) String() string {
	return fmt.Sprintf("select[%s](%s)", s.Cond.String(), s.In.String())
}

// Project keeps the named columns (in the given order), deduplicating rows.
type Project struct {
	In   Expr
	Cols []string
}

// Columns implements Expr.
func (p *Project) Columns() []string { return p.Cols }

// Eval implements Expr.
func (p *Project) Eval(ctx *Ctx) (*Table, error) {
	in, err := ctx.eval(p.In)
	if err != nil {
		return nil, err
	}
	idx := in.colIndex()
	positions := make([]int, len(p.Cols))
	for i, c := range p.Cols {
		pos, ok := idx[c]
		if !ok {
			return nil, fmt.Errorf("algebra: project on missing column %q", c)
		}
		positions[i] = pos
	}
	out := NewTable(p.Cols)
	for _, row := range in.Rows() {
		slim := make([]domain.Value, len(positions))
		for i, pos := range positions {
			slim[i] = row[pos]
		}
		if err := out.Add(slim); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String implements Expr.
func (p *Project) String() string {
	return fmt.Sprintf("project[%s](%s)", strings.Join(p.Cols, ","), p.In.String())
}

// Rename renames one column.
type Rename struct {
	In       Expr
	From, To string
}

// Columns implements Expr.
func (r *Rename) Columns() []string {
	out := append([]string(nil), r.In.Columns()...)
	for i, c := range out {
		if c == r.From {
			out[i] = r.To
		}
	}
	return out
}

// Eval implements Expr.
func (r *Rename) Eval(ctx *Ctx) (*Table, error) {
	in, err := ctx.eval(r.In)
	if err != nil {
		return nil, err
	}
	cols := append([]string(nil), in.Cols...)
	found := false
	for i, c := range cols {
		if c == r.From {
			cols[i] = r.To
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("algebra: rename of missing column %q", r.From)
	}
	if err := distinctCols(cols); err != nil {
		return nil, err
	}
	out := NewTable(cols)
	for _, row := range in.Rows() {
		if err := out.Add(row); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String implements Expr.
func (r *Rename) String() string {
	return fmt.Sprintf("rename[%s->%s](%s)", r.From, r.To, r.In.String())
}

// Extend adds a copy of an existing column under a new name.
type Extend struct {
	In      Expr
	NewCol  string
	FromCol string
}

// Columns implements Expr.
func (e *Extend) Columns() []string { return chainColumns(e) }

// Eval implements Expr.
func (e *Extend) Eval(ctx *Ctx) (*Table, error) {
	in, err := ctx.eval(e.In)
	if err != nil {
		return nil, err
	}
	idx := in.colIndex()
	pos, ok := idx[e.FromCol]
	if !ok {
		return nil, fmt.Errorf("algebra: extend from missing column %q", e.FromCol)
	}
	cols := append(append([]string(nil), in.Cols...), e.NewCol)
	if err := distinctCols(cols); err != nil {
		return nil, err
	}
	out := NewTable(cols)
	for _, row := range in.Rows() {
		if err := out.Add(append(append([]domain.Value(nil), row...), row[pos])); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// String implements Expr.
func (e *Extend) String() string {
	return fmt.Sprintf("extend[%s:=%s](%s)", e.NewCol, e.FromCol, e.In.String())
}

// Join is the natural join: rows agreeing on all shared column names.
// Disjoint columns make it a cross product.
type Join struct {
	L, R Expr
}

// Columns implements Expr.
func (j *Join) Columns() []string { return chainColumns(j) }

// chainColumns lists the columns of a chain of joins and extensions,
// which conjunctions compile to, in one pass from its innermost input
// outwards: asking each level for its input's columns would copy the
// growing list once per level. Selections and the other operators that
// keep their left input's columns pass through.
func chainColumns(e Expr) []string {
	var spine []Expr
	for done := false; !done; {
		switch n := e.(type) {
		case *Join:
			spine = append(spine, n)
			e = n.L
		case *Extend:
			spine = append(spine, n)
			e = n.In
		case *Select:
			e = n.In
		case *AntiJoin:
			e = n.L
		case *Guarded:
			e = n.Body
		default:
			done = true
		}
	}
	out := append([]string(nil), e.Columns()...)
	seen := make(map[string]bool, len(out))
	for _, c := range out {
		seen[c] = true
	}
	for i := len(spine) - 1; i >= 0; i-- {
		switch n := spine[i].(type) {
		case *Join:
			for _, c := range n.R.Columns() {
				if !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
		case *Extend:
			seen[n.NewCol] = true
			out = append(out, n.NewCol)
		}
	}
	return out
}

// Eval implements Expr.
func (j *Join) Eval(ctx *Ctx) (*Table, error) {
	l, err := ctx.eval(j.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.eval(j.R)
	if err != nil {
		return nil, err
	}
	lShared, rShared, rExtra := sharedCols(l, r)
	cols := append([]string(nil), l.Cols...)
	for _, p := range rExtra {
		cols = append(cols, r.Cols[p])
	}
	// Hash the right side on the shared columns.
	var k keyer
	hash := map[string][][]domain.Value{}
	for _, row := range r.Rows() {
		key := string(k.key(row, rShared))
		hash[key] = append(hash[key], row)
	}
	out := NewTable(cols)
	for _, lrow := range l.Rows() {
		for _, rrow := range hash[string(k.key(lrow, lShared))] {
			row := append([]domain.Value(nil), lrow...)
			for _, p := range rExtra {
				row = append(row, rrow[p])
			}
			if err := out.Add(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// String implements Expr.
func (j *Join) String() string {
	return fmt.Sprintf("(%s join %s)", j.L.String(), j.R.String())
}

// sharedCols locates the columns two tables share, on each side, and the
// right side's other columns.
func sharedCols(l, r *Table) (lShared, rShared, rExtra []int) {
	lIdx := l.colIndex()
	for i, c := range r.Cols {
		if pos, ok := lIdx[c]; ok {
			lShared = append(lShared, pos)
			rShared = append(rShared, i)
		} else {
			rExtra = append(rExtra, i)
		}
	}
	return lShared, rShared, rExtra
}

// keyer builds the tuple key of some of a row's values in one reused
// buffer, to hash rows on their shared columns.
type keyer struct {
	vals db.Tuple
	buf  []byte
}

// key returns the tuple key of row's values at pos, valid until the next
// call.
func (k *keyer) key(row []domain.Value, pos []int) []byte {
	k.vals = k.vals[:0]
	for _, p := range pos {
		k.vals = append(k.vals, row[p])
	}
	k.buf = k.vals.AppendKey(k.buf[:0])
	return k.buf
}

// Union is set union; both inputs must have the same column set, and the
// right side is reordered to match.
type Union struct {
	L, R Expr
}

// Columns implements Expr.
func (u *Union) Columns() []string { return u.L.Columns() }

// Eval implements Expr. A left-deep chain of unions, which a disjunction
// compiles to, evaluates as one n-ary union into a single table, without
// a table or a stack frame per disjunct.
func (u *Union) Eval(ctx *Ctx) (*Table, error) {
	rights := []Expr{u.R}
	first := u.L
	for l, ok := first.(*Union); ok; l, ok = first.(*Union) {
		rights = append(rights, l.R)
		first = l.L
	}
	l, err := ctx.eval(first)
	if err != nil {
		return nil, err
	}
	out := NewTable(l.Cols)
	for _, row := range l.Rows() {
		if err := out.Add(row); err != nil {
			return nil, err
		}
	}
	for i := len(rights) - 1; i >= 0; i-- {
		r, err := ctx.eval(rights[i])
		if err != nil {
			return nil, err
		}
		rows, err := alignRows(l, r)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			if err := out.Add(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// String implements Expr.
func (u *Union) String() string {
	return fmt.Sprintf("(%s union %s)", u.L.String(), u.R.String())
}

// Diff is set difference (left minus right), columns aligned like Union.
type Diff struct {
	L, R Expr
}

// Columns implements Expr.
func (d *Diff) Columns() []string { return d.L.Columns() }

// Eval implements Expr.
func (d *Diff) Eval(ctx *Ctx) (*Table, error) {
	l, err := ctx.eval(d.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.eval(d.R)
	if err != nil {
		return nil, err
	}
	rows, err := alignRows(l, r)
	if err != nil {
		return nil, err
	}
	right := NewTable(l.Cols)
	for _, row := range rows {
		if err := right.Add(row); err != nil {
			return nil, err
		}
	}
	out := NewTable(l.Cols)
	for _, row := range l.Rows() {
		if !right.Has(row) {
			if err := out.Add(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// String implements Expr.
func (d *Diff) String() string {
	return fmt.Sprintf("(%s minus %s)", d.L.String(), d.R.String())
}

// AntiJoin keeps the left rows that agree with no right row on their
// shared columns: E − π_E(E ⋈ G), with E evaluated once. A guarded
// negation compiles to it.
type AntiJoin struct {
	L, R Expr
}

// Columns implements Expr.
func (a *AntiJoin) Columns() []string { return a.L.Columns() }

// Eval implements Expr.
func (a *AntiJoin) Eval(ctx *Ctx) (*Table, error) {
	l, err := ctx.eval(a.L)
	if err != nil {
		return nil, err
	}
	r, err := ctx.eval(a.R)
	if err != nil {
		return nil, err
	}
	lShared, rShared, _ := sharedCols(l, r)
	var k keyer
	matched := make(map[string]bool, r.Len())
	for _, row := range r.Rows() {
		matched[string(k.key(row, rShared))] = true
	}
	out := NewTable(l.Cols)
	for _, row := range l.Rows() {
		if !matched[string(k.key(row, lShared))] {
			if err := out.Add(row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// String implements Expr.
func (a *AntiJoin) String() string {
	return fmt.Sprintf("(%s antijoin %s)", a.L.String(), a.R.String())
}

// Guarded evaluates Body with Guard's table bound to the Seed leaves in
// Body: a correlated subformula compiled against the plan that ranges
// its free variables. Guard evaluates once however often Body reads it,
// so a chain of correlated subformulas stays linear in plan size and
// evaluation time.
type Guarded struct {
	Guard, Body Expr
}

// Columns implements Expr.
func (g *Guarded) Columns() []string { return g.Body.Columns() }

// Eval implements Expr.
func (g *Guarded) Eval(ctx *Ctx) (*Table, error) {
	guard, err := ctx.eval(g.Guard)
	if err != nil {
		return nil, err
	}
	ctx.seeds = append(ctx.seeds, guard)
	out, err := ctx.eval(g.Body)
	ctx.seeds = ctx.seeds[:len(ctx.seeds)-1]
	return out, err
}

// String implements Expr.
func (g *Guarded) String() string {
	return fmt.Sprintf("(%s as seed in %s)", g.Guard.String(), g.Body.String())
}

// Seed is the guard table of the innermost Guarded node being evaluated;
// Cols are the guard's columns.
type Seed struct {
	Cols []string
}

// Columns implements Expr.
func (s *Seed) Columns() []string { return s.Cols }

// Eval implements Expr.
func (s *Seed) Eval(ctx *Ctx) (*Table, error) {
	if len(ctx.seeds) == 0 {
		return nil, fmt.Errorf("algebra: seed outside a guarded plan")
	}
	return ctx.seeds[len(ctx.seeds)-1], nil
}

// String implements Expr.
func (s *Seed) String() string { return "seed" }

// alignRows returns r's rows with their columns in l's order, failing if
// the column sets differ.
func alignRows(l, r *Table) ([][]domain.Value, error) {
	if len(l.Cols) != len(r.Cols) {
		return nil, fmt.Errorf("algebra: column sets differ: %v vs %v", l.Cols, r.Cols)
	}
	rIdx := r.colIndex()
	perm := make([]int, len(l.Cols))
	same := true
	for i, c := range l.Cols {
		pos, ok := rIdx[c]
		if !ok {
			return nil, fmt.Errorf("algebra: column sets differ: %v vs %v", l.Cols, r.Cols)
		}
		perm[i] = pos
		same = same && pos == i
	}
	rows := r.Rows()
	if same {
		return rows, nil
	}
	out := make([][]domain.Value, len(rows))
	for i, row := range rows {
		moved := make([]domain.Value, len(perm))
		for j, pos := range perm {
			moved[j] = row[pos]
		}
		out[i] = moved
	}
	return out, nil
}

func distinctCols(cols []string) error {
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c] {
			return fmt.Errorf("algebra: duplicate column %q", c)
		}
		seen[c] = true
	}
	return nil
}

// Cond is a selection condition.
type Cond interface {
	Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error)
	String() string
}

// Arg is a condition argument: a column reference or a constant name.
type Arg struct {
	Col   string
	Const string
	IsCol bool
}

// ColArg references a column.
func ColArg(c string) Arg { return Arg{Col: c, IsCol: true} }

// ConstArg references a constant by name.
func ConstArg(name string) Arg { return Arg{Const: name} }

func (a Arg) value(ctx *Ctx, idx map[string]int, row []domain.Value) (domain.Value, error) {
	if a.IsCol {
		pos, ok := idx[a.Col]
		if !ok {
			return nil, fmt.Errorf("algebra: condition on missing column %q", a.Col)
		}
		return row[pos], nil
	}
	return ctx.constValue(a.Const)
}

// String implements fmt.Stringer.
func (a Arg) String() string {
	if a.IsCol {
		return a.Col
	}
	return fmt.Sprintf("%q", a.Const)
}

// CondEq compares two arguments for equality.
type CondEq struct{ A, B Arg }

// Holds implements Cond.
func (c CondEq) Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error) {
	av, err := c.A.value(ctx, idx, row)
	if err != nil {
		return false, err
	}
	bv, err := c.B.value(ctx, idx, row)
	if err != nil {
		return false, err
	}
	return domain.Equal(av, bv), nil
}

// String implements Cond.
func (c CondEq) String() string { return c.A.String() + "=" + c.B.String() }

// CondPred evaluates a domain predicate on arguments.
type CondPred struct {
	Pred string
	Args []Arg
}

// Holds implements Cond. The domain predicate reads its arguments from
// the context's buffer and keeps none of them.
func (c CondPred) Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error) {
	vals := ctx.args[:0]
	for _, a := range c.Args {
		v, err := a.value(ctx, idx, row)
		if err != nil {
			return false, err
		}
		vals = append(vals, v)
	}
	ctx.args = vals
	return ctx.Dom.Pred(c.Pred, vals)
}

// String implements Cond.
func (c CondPred) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Pred + "(" + strings.Join(parts, ",") + ")"
}

// CondNot negates a condition.
type CondNot struct{ C Cond }

// Holds implements Cond.
func (c CondNot) Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error) {
	v, err := c.C.Holds(ctx, idx, row)
	return !v, err
}

// String implements Cond.
func (c CondNot) String() string { return "~" + c.C.String() }

// CondAnd conjoins conditions.
type CondAnd struct{ Cs []Cond }

// Holds implements Cond.
func (c CondAnd) Holds(ctx *Ctx, idx map[string]int, row []domain.Value) (bool, error) {
	for _, s := range c.Cs {
		v, err := s.Holds(ctx, idx, row)
		if err != nil || !v {
			return false, err
		}
	}
	return true, nil
}

// String implements Cond.
func (c CondAnd) String() string {
	parts := make([]string, len(c.Cs))
	for i, s := range c.Cs {
		parts[i] = s.String()
	}
	return strings.Join(parts, "&")
}
