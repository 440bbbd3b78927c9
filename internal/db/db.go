// Package db implements Codd's relational model as used by the paper: a
// database scheme fixes relation names and arities (plus database constant
// symbols), and a database state is a finite collection of finite relations
// over a domain, together with values for the database constants.
package db

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/domain"
)

// Scheme is a database scheme: relation names with arities, and database
// constant symbols (Theorem 3.1 uses a scheme with one constant symbol c;
// its footnote remarks this is formally handled by a unary relation, which
// states also support).
type Scheme struct {
	Relations map[string]int
	Constants []string
}

// NewScheme builds a scheme; arities must be positive.
func NewScheme(relations map[string]int, constants ...string) (*Scheme, error) {
	for name, arity := range relations {
		if arity < 1 {
			return nil, fmt.Errorf("db: relation %s has arity %d", name, arity)
		}
	}
	rels := make(map[string]int, len(relations))
	for k, v := range relations {
		rels[k] = v
	}
	return &Scheme{Relations: rels, Constants: append([]string(nil), constants...)}, nil
}

// MustScheme is NewScheme panicking on error.
func MustScheme(relations map[string]int, constants ...string) *Scheme {
	s, err := NewScheme(relations, constants...)
	if err != nil {
		panic(err)
	}
	return s
}

// HasConstant reports whether name is a database constant of the scheme.
func (s *Scheme) HasConstant(name string) bool {
	for _, c := range s.Constants {
		if c == name {
			return true
		}
	}
	return false
}

// Tuple is a row of a relation.
type Tuple []domain.Value

// Key returns a canonical key for the tuple: each value's key prefixed by
// its byte length and a colon, joined by commas ("1:5,3:abc"). Rows are
// ordered by these keys.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends the tuple's key (see Key) to b and returns the
// extended buffer. A lookup m[string(t.AppendKey(buf[:0]))] allocates
// nothing when the key fits buf.
func (t Tuple) AppendKey(b []byte) []byte {
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		if n, ok := v.(domain.Int); ok {
			var digits [20]byte
			k := strconv.AppendInt(digits[:0], int64(n), 10)
			b = strconv.AppendInt(b, int64(len(k)), 10)
			b = append(append(b, ':'), k...)
			continue
		}
		k := v.Key()
		b = strconv.AppendInt(b, int64(len(k)), 10)
		b = append(append(b, ':'), k...)
	}
	return b
}

// String implements fmt.Stringer.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a finite set of equal-arity tuples.
type Relation struct {
	arity   int
	rows    map[string]Tuple
	version uint64
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity, rows: map[string]Tuple{}}
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.rows) }

// Add inserts a tuple; it is an error if the arity differs.
func (r *Relation) Add(t Tuple) error {
	if len(t) != r.arity {
		return fmt.Errorf("db: tuple %v has arity %d, relation has %d", t, len(t), r.arity)
	}
	r.rows[t.Key()] = append(Tuple(nil), t...)
	r.version++
	return nil
}

// Version returns a counter that changes on every mutation, so derived
// read-only views (see State.Memo) can tell whether they are current.
func (r *Relation) Version() uint64 { return r.version }

// Has reports membership.
func (r *Relation) Has(t Tuple) bool {
	var buf [64]byte
	_, ok := r.rows[string(t.AppendKey(buf[:0]))]
	return ok
}

// Tuples returns the rows sorted by key, for deterministic iteration.
func (r *Relation) Tuples() []Tuple {
	_, out := r.KeyedTuples()
	return out
}

// KeyedTuples returns the rows sorted by key, and those keys. The rows
// alias the relation's storage and must not be mutated.
func (r *Relation) KeyedTuples() ([]string, []Tuple) {
	keys := make([]string, 0, len(r.rows))
	for k := range r.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = r.rows[k]
	}
	return keys, out
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	out := &Relation{arity: r.arity, rows: make(map[string]Tuple, len(r.rows))}
	for k, t := range r.rows {
		out.rows[k] = append(Tuple(nil), t...)
	}
	return out
}

// State is a database state: finite relations for each scheme relation and
// values for the scheme's constants.
//
// A state also memoizes derived read-only views (materialized base tables,
// the active domain) keyed by a version counter, so workloads that run many
// queries against one state — a batch request, an enumeration's probe loop
// — pay the derivation once instead of per query. Mutating the state (or
// any relation obtained from it) invalidates the memos on the next lookup.
type State struct {
	scheme *Scheme
	rels   map[string]*Relation
	consts map[string]domain.Value

	constVersion uint64
	memoMu       sync.Mutex
	memo         map[string]memoEntry
}

// memoEntry is one cached derived view with the version it was built at.
type memoEntry struct {
	version uint64
	value   any
}

// NewState returns the empty state of a scheme (all relations empty, all
// constants unset).
func NewState(scheme *Scheme) *State {
	st := &State{scheme: scheme, rels: map[string]*Relation{}, consts: map[string]domain.Value{}}
	for name, arity := range scheme.Relations {
		st.rels[name] = NewRelation(arity)
	}
	return st
}

// Scheme returns the state's scheme.
func (st *State) Scheme() *Scheme { return st.scheme }

// Relation returns the named relation, or an error for names outside the
// scheme.
func (st *State) Relation(name string) (*Relation, error) {
	r, ok := st.rels[name]
	if !ok {
		return nil, fmt.Errorf("db: relation %q not in scheme", name)
	}
	return r, nil
}

// Insert adds a row to the named relation.
func (st *State) Insert(name string, values ...domain.Value) error {
	r, err := st.Relation(name)
	if err != nil {
		return err
	}
	return r.Add(Tuple(values))
}

// SetConstant gives a database constant its value in this state.
func (st *State) SetConstant(name string, v domain.Value) error {
	if !st.scheme.HasConstant(name) {
		return fmt.Errorf("db: constant %q not in scheme", name)
	}
	st.consts[name] = v
	st.constVersion++
	return nil
}

// Version returns a counter that changes whenever any relation or constant
// of the state changes. Versions only grow, so equal versions mean an
// unchanged state.
func (st *State) Version() uint64 {
	v := st.constVersion
	for _, r := range st.rels {
		v += r.version
	}
	return v
}

// Memo returns the cached derived view under key if it was built at the
// given version, building and caching it otherwise. The build result must
// be treated as read-only by every consumer: it is shared across queries
// (and across goroutines, when several evaluate over one state).
func (st *State) Memo(key string, version uint64, build func() any) any {
	st.memoMu.Lock()
	defer st.memoMu.Unlock()
	if e, ok := st.memo[key]; ok && e.version == version {
		return e.value
	}
	v := build()
	if st.memo == nil {
		st.memo = map[string]memoEntry{}
	}
	st.memo[key] = memoEntry{version: version, value: v}
	return v
}

// Constant returns the value of a database constant in this state.
func (st *State) Constant(name string) (domain.Value, error) {
	v, ok := st.consts[name]
	if !ok {
		return nil, fmt.Errorf("db: constant %q unset", name)
	}
	return v, nil
}

// Clone deep-copies the state.
func (st *State) Clone() *State {
	out := NewState(st.scheme)
	for name, r := range st.rels {
		out.rels[name] = r.Clone()
	}
	for name, v := range st.consts {
		out.consts[name] = v
	}
	return out
}

// ActiveDomain returns the active domain of the state: every value occurring
// in a relation or as a database constant, sorted by key. Query constants
// are the caller's to add ("the set of all constants used in the querying
// formula and/or elements contained in the database relations").
//
// The result is memoized until the state changes; it is built with no spare
// capacity, so appending to it copies instead of mutating the shared view.
func (st *State) ActiveDomain() []domain.Value {
	return st.Memo("db.activedomain", st.Version(), func() any {
		return st.activeDomain()
	}).([]domain.Value)
}

// activeDomain computes ActiveDomain's value. Every value's key is
// formatted once into one shared buffer; sorting by those keys and
// dropping adjacent repeats leaves each distinct value once, in key order.
func (st *State) activeDomain() []domain.Value {
	n := len(st.consts)
	for _, r := range st.rels {
		n += r.arity * len(r.rows)
	}
	type keyed struct {
		v          domain.Value
		start, end int
	}
	vals := make([]keyed, 0, n)
	buf := make([]byte, 0, 8*n)
	add := func(v domain.Value) {
		start := len(buf)
		buf = domain.AppendKey(buf, v)
		vals = append(vals, keyed{v: v, start: start, end: len(buf)})
	}
	for _, r := range st.rels {
		for _, t := range r.rows {
			for _, v := range t {
				add(v)
			}
		}
	}
	for _, v := range st.consts {
		add(v)
	}
	key := func(k keyed) []byte { return buf[k.start:k.end] }
	slices.SortFunc(vals, func(a, b keyed) int { return bytes.Compare(key(a), key(b)) })
	out := make([]domain.Value, 0, len(vals))
	for i, k := range vals {
		if i > 0 && bytes.Equal(key(k), key(vals[i-1])) {
			continue
		}
		out = append(out, k.v)
	}
	return out[:len(out):len(out)]
}

// String renders the state compactly.
func (st *State) String() string {
	var names []string
	for name := range st.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s:", name)
		for _, t := range st.rels[name].Tuples() {
			b.WriteString(" " + t.String())
		}
		b.WriteString("\n")
	}
	var cnames []string
	for name := range st.consts {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		fmt.Fprintf(&b, "%s = %s\n", name, st.consts[name])
	}
	return b.String()
}
