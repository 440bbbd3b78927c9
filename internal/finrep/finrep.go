// Package finrep implements the paper's first way of dealing with
// undecidable safety (§1.2): accept infinite relations, finitely
// represented. A relation is stored not as a set of tuples but as a
// quantifier-free (or arbitrary) formula over the domain with one free
// variable per column — the constraint-database model of Kanellakis, Kuper
// and Revesz [KKR90], which the paper cites as the developed form of the
// idea from [AGSS86].
//
// "Of course we cannot actually generate the infinite relations (not to
// mention the idea of printing the results). But still, the database
// remains capable of answering questions of whether a certain tuple belongs
// to a relation, finite or infinite, or whether a certain fact holds."
//
// Queries are answered by unfolding: database atoms are replaced by the
// defining formulas of their relations, after which the domain's quantifier
// eliminator produces a finite representation of the answer and the decider
// answers membership and facts. Finiteness of a represented relation is
// decided by the Theorem 2.5 criterion where available, closing the loop
// with the rest of the library.
package finrep

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/domain"
	"repro/internal/logic"
	"repro/internal/query"
)

// Relation is a finitely represented (possibly infinite) relation: the set
// of assignments to Columns satisfying Def over the domain.
type Relation struct {
	// Columns are the relation's attribute names, in order; they are the
	// free variables of Def (Def may omit some, leaving those columns
	// unconstrained).
	Columns []string
	// Def is the defining formula.
	Def *logic.Formula
}

// NewRelation builds a represented relation, checking that Def's free
// variables are among the columns.
func NewRelation(columns []string, def *logic.Formula) (*Relation, error) {
	cols := map[string]bool{}
	for _, c := range columns {
		if cols[c] {
			return nil, fmt.Errorf("finrep: duplicate column %q", c)
		}
		cols[c] = true
	}
	for _, v := range def.FreeVars() {
		if !cols[v] {
			return nil, fmt.Errorf("finrep: defining formula has free variable %q outside columns %v", v, columns)
		}
	}
	return &Relation{Columns: append([]string(nil), columns...), Def: def}, nil
}

// Database is a set of named represented relations over one domain.
type Database struct {
	// Dom interprets constants and predicates.
	Dom domain.Domain
	// Dec decides pure sentences.
	Dec domain.Decider
	// Elim eliminates quantifiers (for Representation and simplified
	// answers).
	Elim domain.Eliminator
	rels map[string]*Relation
}

// NewDatabase returns an empty constraint database.
func NewDatabase(dom domain.Domain, dec domain.Decider, elim domain.Eliminator) *Database {
	return &Database{Dom: dom, Dec: dec, Elim: elim, rels: map[string]*Relation{}}
}

// Define adds (or replaces) a relation.
func (db *Database) Define(name string, rel *Relation) {
	db.rels[name] = rel
}

// Relation returns a defined relation.
func (db *Database) Relation(name string) (*Relation, bool) {
	r, ok := db.rels[name]
	return r, ok
}

// Unfold replaces every database atom R(t̄) in f by R's defining formula
// with columns substituted by the argument terms — the constraint-database
// counterpart of the §1.1 row expansion, except the result stays finite
// even when the relations are infinite.
func (db *Database) Unfold(f *logic.Formula) (*logic.Formula, error) {
	var firstErr error
	g := f.Map(func(h *logic.Formula) *logic.Formula {
		if h.Kind != logic.FAtom || firstErr != nil {
			return h
		}
		rel, ok := db.rels[h.Pred]
		if !ok {
			return h // a domain predicate
		}
		if len(h.Args) != len(rel.Columns) {
			firstErr = fmt.Errorf("finrep: %s expects %d arguments, got %d", h.Pred, len(rel.Columns), len(h.Args))
			return h
		}
		// Rename columns apart first so substituting argument terms cannot
		// capture or clash (e.g. R(y, x) into a definition using x, y).
		body := rel.Def
		fresh := make([]string, len(rel.Columns))
		for i, col := range rel.Columns {
			fresh[i] = logic.FreshVar("u"+col, body, h)
			body = logic.Subst(body, col, logic.Var(fresh[i]))
		}
		for i := range rel.Columns {
			body = logic.Subst(body, fresh[i], h.Args[i])
		}
		return body
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return g, nil
}

// Representation computes a finite representation of a query's answer: the
// unfolded formula with quantifiers eliminated. Its free variables are the
// query's, and it defines the same relation. Like every method that
// eliminates or decides, it runs under ctx and stops with its error.
func (db *Database) Representation(ctx context.Context, f *logic.Formula) (*Relation, error) {
	unfolded, err := db.Unfold(f)
	if err != nil {
		return nil, err
	}
	qf, err := db.Elim.Eliminate(ctx, unfolded)
	if err != nil {
		return nil, err
	}
	return &Relation{Columns: f.FreeVars(), Def: logic.Simplify(qf)}, nil
}

// Member decides whether a tuple belongs to a query's answer — the
// "questions of whether a certain tuple belongs to a relation, finite or
// infinite" that the representation keeps answerable.
func (db *Database) Member(ctx context.Context, f *logic.Formula, tuple map[string]domain.Value) (bool, error) {
	unfolded, err := db.Unfold(f)
	if err != nil {
		return false, err
	}
	for _, v := range unfolded.FreeVars() {
		val, ok := tuple[v]
		if !ok {
			return false, fmt.Errorf("finrep: tuple misses column %q", v)
		}
		unfolded = logic.Subst(unfolded, v, logic.Const(db.Dom.ConstName(val)))
	}
	return db.Dec.Decide(ctx, unfolded)
}

// Fact decides a boolean query ("whether a certain fact holds").
func (db *Database) Fact(ctx context.Context, f *logic.Formula) (bool, error) {
	unfolded, err := db.Unfold(f)
	if err != nil {
		return false, err
	}
	if fv := unfolded.FreeVars(); len(fv) != 0 {
		return false, fmt.Errorf("finrep: fact query has free variables %v", fv)
	}
	return db.Dec.Decide(ctx, unfolded)
}

// Finite decides whether a query's answer is finite, via the Theorem 2.5
// criterion: the unfolded formula is finite iff it is equivalent to its
// finitization. This requires the domain to extend N< (an order predicate
// "lt"); it is exact over the Presburger domain.
func (db *Database) Finite(ctx context.Context, f *logic.Formula) (bool, error) {
	unfolded, err := db.Unfold(f)
	if err != nil {
		return false, err
	}
	vars := unfolded.FreeVars()
	if len(vars) == 0 {
		return true, nil
	}
	fin := core.Finitize(unfolded)
	return db.Dec.Decide(ctx, logic.ForallAll(vars, logic.Iff(unfolded, fin)))
}

// Materialize lists a finite answer's tuples: after confirming finiteness
// it runs the §1.1 enumeration of internal/query over the unfolded formula,
// with candidates in enum's order, up to probe rows and probe candidates
// per row. For infinite answers it returns an error — exactly the
// operation the representation exists to avoid.
func (db *Database) Materialize(ctx context.Context, f *logic.Formula, enum domain.Enumerator, probe int) ([]map[string]domain.Value, error) {
	finite, err := db.Finite(ctx, f)
	if err != nil {
		return nil, err
	}
	if !finite {
		return nil, fmt.Errorf("finrep: answer is infinite; query its representation instead")
	}
	unfolded, err := db.Unfold(f)
	if err != nil {
		return nil, err
	}
	return enumerate(ctx, enumerable{db.Dom, enum}, db.Dec, unfolded, probe)
}

// enumerable orders a domain's universe by an Enumerator.
type enumerable struct {
	domain.Domain
	domain.Enumerator
}

// enumerate runs the §1.1 loop over a pure formula (an empty state leaves
// it as it is) and lists the rows in the order the loop finds them. A
// boolean formula yields one empty row when it holds.
func enumerate(ctx context.Context, dom query.Enumerable, dec domain.Decider,
	pure *logic.Formula, probe int) ([]map[string]domain.Value, error) {

	var out []map[string]domain.Value
	ans, err := query.EnumerationAnswerSinkCtx(ctx, dom, dec, db.NewState(db.MustScheme(nil)), pure,
		query.EnumerationBudget{Rows: probe, Probe: probe}, func(vars []string, t db.Tuple) error {
			row := make(map[string]domain.Value, len(vars))
			for i, v := range vars {
				row[v] = t[i]
			}
			out = append(out, row)
			return nil
		})
	if ans == nil {
		return nil, err
	}
	if len(ans.Vars) == 0 && ans.Rows.Len() == 1 {
		out = []map[string]domain.Value{{}}
	}
	if err == nil && !ans.Complete && len(out) < probe {
		err = fmt.Errorf("finrep: probe budget exhausted with rows outstanding")
	}
	return out, err
}
