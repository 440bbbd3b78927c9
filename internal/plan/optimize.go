package plan

import (
	"fmt"

	"repro/internal/algebra"
)

// Algebra-tier plan optimization. Two classical, result-preserving
// rewrites:
//
//   - Selection pushdown: a selection sitting above a join (or a
//     projection) whose condition only mentions one side's columns moves
//     into that side, so the join hashes fewer rows. Natural join then
//     filter equals filter then join when the condition reads only
//     surviving columns.
//   - Join reordering: the natural join of a set of inputs is
//     order-independent (its result is the set of tuples over the united
//     columns consistent with every input), so join trees ≥ 3 leaves are
//     rebuilt left-deep with statically cheaper inputs first, preferring
//     joins that share columns over cross products.

// optimizeAlgebra rewrites a compiled algebra expression and reports the
// optimizations applied, for EXPLAIN text.
func optimizeAlgebra(e algebra.Expr) (algebra.Expr, []string) {
	o := &optimizer{}
	out := o.rewrite(e)
	var notes []string
	if o.pushed > 0 {
		notes = append(notes, fmt.Sprintf("selection pushdown ×%d", o.pushed))
	}
	if o.reordered > 0 {
		notes = append(notes, fmt.Sprintf("join reorder ×%d", o.reordered))
	}
	return out, notes
}

type optimizer struct {
	pushed    int
	reordered int
}

func (o *optimizer) rewrite(e algebra.Expr) algebra.Expr {
	switch n := e.(type) {
	case *algebra.Select:
		in := o.rewrite(n.In)
		var rest []algebra.Cond
		for _, c := range splitCond(n.Cond) {
			if pushedIn, ok := o.push(in, c); ok {
				o.pushed++
				in = pushedIn
			} else {
				rest = append(rest, c)
			}
		}
		if len(rest) == 0 {
			return in
		}
		return &algebra.Select{In: in, Cond: joinCond(rest)}
	case *algebra.Project:
		return &algebra.Project{In: o.rewrite(n.In), Cols: n.Cols}
	case *algebra.Rename:
		return &algebra.Rename{In: o.rewrite(n.In), From: n.From, To: n.To}
	case *algebra.Extend:
		return &algebra.Extend{In: o.rewrite(n.In), NewCol: n.NewCol, FromCol: n.FromCol}
	case *algebra.Join:
		j := &algebra.Join{L: o.rewrite(n.L), R: o.rewrite(n.R)}
		return o.reorderJoin(j)
	case *algebra.Union:
		return &algebra.Union{L: o.rewrite(n.L), R: o.rewrite(n.R)}
	case *algebra.Diff:
		return &algebra.Diff{L: o.rewrite(n.L), R: o.rewrite(n.R)}
	case *algebra.AntiJoin:
		return &algebra.AntiJoin{L: o.rewrite(n.L), R: o.rewrite(n.R)}
	case *algebra.Guarded:
		return &algebra.Guarded{Guard: o.rewrite(n.Guard), Body: o.rewrite(n.Body)}
	}
	return e
}

// push moves one conjunct into the side of a join (or below a projection)
// that carries all its columns. Reports false when the condition straddles
// both sides or the input has no structure to push through.
func (o *optimizer) push(e algebra.Expr, c algebra.Cond) (algebra.Expr, bool) {
	cols, ok := condCols(c)
	if !ok {
		return e, false
	}
	switch n := e.(type) {
	case *algebra.Join:
		if subset(cols, n.L.Columns()) {
			return &algebra.Join{L: selectInto(o, n.L, c), R: n.R}, true
		}
		if subset(cols, n.R.Columns()) {
			return &algebra.Join{L: n.L, R: selectInto(o, n.R, c)}, true
		}
	case *algebra.Project:
		if subset(cols, n.Cols) {
			return &algebra.Project{In: selectInto(o, n.In, c), Cols: n.Cols}, true
		}
	}
	return e, false
}

// selectInto pushes recursively where possible, else wraps in a Select.
func selectInto(o *optimizer, e algebra.Expr, c algebra.Cond) algebra.Expr {
	if pushed, ok := o.push(e, c); ok {
		o.pushed++
		return pushed
	}
	return &algebra.Select{In: e, Cond: c}
}

// splitCond flattens CondAnd into its conjuncts.
func splitCond(c algebra.Cond) []algebra.Cond {
	if and, ok := c.(algebra.CondAnd); ok {
		var out []algebra.Cond
		for _, s := range and.Cs {
			out = append(out, splitCond(s)...)
		}
		return out
	}
	return []algebra.Cond{c}
}

func joinCond(cs []algebra.Cond) algebra.Cond {
	if len(cs) == 1 {
		return cs[0]
	}
	return algebra.CondAnd{Cs: cs}
}

// condCols lists the columns a condition reads; false for unknown
// condition types (never pushed).
func condCols(c algebra.Cond) ([]string, bool) {
	switch n := c.(type) {
	case algebra.CondEq:
		return argCols(n.A, n.B), true
	case algebra.CondPred:
		return argCols(n.Args...), true
	case algebra.CondNot:
		return condCols(n.C)
	case algebra.CondAnd:
		var out []string
		for _, s := range n.Cs {
			cols, ok := condCols(s)
			if !ok {
				return nil, false
			}
			out = append(out, cols...)
		}
		return out, true
	}
	return nil, false
}

func argCols(args ...algebra.Arg) []string {
	var out []string
	for _, a := range args {
		if a.IsCol {
			out = append(out, a.Col)
		}
	}
	return out
}

func subset(needles, hay []string) bool {
	set := make(map[string]bool, len(hay))
	for _, c := range hay {
		set[c] = true
	}
	for _, c := range needles {
		if !set[c] {
			return false
		}
	}
	return true
}

// reorderJoin rebuilds a join tree of ≥ 3 leaves left-deep: the statically
// cheapest leaf first, then greedily the cheapest leaf sharing a column
// with the accumulated columns (avoiding cross products when the join
// graph is connected).
func (o *optimizer) reorderJoin(j *algebra.Join) algebra.Expr {
	leaves := flattenJoin(j)
	if len(leaves) < 3 {
		return j
	}
	used := make([]bool, len(leaves))
	pick := 0
	for i := 1; i < len(leaves); i++ {
		if estimate(leaves[i]) < estimate(leaves[pick]) {
			pick = i
		}
	}
	used[pick] = true
	order := []int{pick}
	cols := map[string]bool{}
	for _, c := range leaves[pick].Columns() {
		cols[c] = true
	}
	for len(order) < len(leaves) {
		best, bestConn := -1, false
		for i, leaf := range leaves {
			if used[i] {
				continue
			}
			conn := sharesCol(cols, leaf.Columns())
			switch {
			case best < 0,
				conn && !bestConn,
				conn == bestConn && estimate(leaf) < estimate(leaves[best]):
				best, bestConn = i, conn
			}
		}
		used[best] = true
		order = append(order, best)
		for _, c := range leaves[best].Columns() {
			cols[c] = true
		}
	}
	changed := false
	for i, idx := range order {
		if idx != i {
			changed = true
			break
		}
	}
	if !changed {
		return j
	}
	o.reordered++
	out := leaves[order[0]]
	for _, idx := range order[1:] {
		out = &algebra.Join{L: out, R: leaves[idx]}
	}
	return out
}

// flattenJoin collects the non-join leaves of a join tree.
func flattenJoin(e algebra.Expr) []algebra.Expr {
	if j, ok := e.(*algebra.Join); ok {
		return append(flattenJoin(j.L), flattenJoin(j.R)...)
	}
	return []algebra.Expr{e}
}

func sharesCol(set map[string]bool, cols []string) bool {
	for _, c := range cols {
		if set[c] {
			return true
		}
	}
	return false
}

// estimate is a static input-size guess: literal tables are known
// exactly, selections halve their input, everything else is a scan.
func estimate(e algebra.Expr) int {
	switch n := e.(type) {
	case *algebra.Lit:
		return len(n.Rows)
	case *algebra.Select:
		in := estimate(n.In)
		if in > 1 {
			return in / 2
		}
		return 1
	case *algebra.Project:
		return estimate(n.In)
	case *algebra.Rename:
		return estimate(n.In)
	case *algebra.Extend:
		return estimate(n.In)
	}
	return 100
}
