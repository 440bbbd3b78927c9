// Package logic implements the first-order language used throughout the
// reproduction: terms, formulas, substitution, normal forms, and printing.
//
// The language is the relational calculus of the paper: first-order logic
// with equality over a signature of constants, functions, and predicates.
// Database relations and domain relations are both rendered as predicate
// atoms; which is which is a concern of higher layers (internal/query).
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// TermKind discriminates the three shapes of a term.
type TermKind int

const (
	// TVar is a variable occurrence.
	TVar TermKind = iota
	// TConst is a constant symbol. Interpretation of the name is up to the
	// domain (a numeral for arithmetic domains, a word for the trace domain).
	TConst
	// TApp is a function application.
	TApp
)

// Term is a first-order term. Terms are immutable by convention: all
// transformations in this package return fresh terms and never mutate
// arguments in place.
type Term struct {
	Kind TermKind
	// Name is the variable name (TVar), constant symbol (TConst), or
	// function symbol (TApp).
	Name string
	// Args holds the arguments of a function application; nil otherwise.
	Args []Term
}

// Var constructs a variable term.
func Var(name string) Term { return Term{Kind: TVar, Name: name} }

// Const constructs a constant term.
func Const(name string) Term { return Term{Kind: TConst, Name: name} }

// App constructs a function application term.
func App(fn string, args ...Term) Term {
	return Term{Kind: TApp, Name: fn, Args: args}
}

// IsVar reports whether the term is a variable with the given name.
func (t Term) IsVar(name string) bool { return t.Kind == TVar && t.Name == name }

// Equal reports structural equality of two terms.
func (t Term) Equal(u Term) bool {
	if t.Kind != u.Kind || t.Name != u.Name || len(t.Args) != len(u.Args) {
		return false
	}
	for i := range t.Args {
		if !t.Args[i].Equal(u.Args[i]) {
			return false
		}
	}
	return true
}

// String renders the term in the concrete syntax accepted by internal/parser.
func (t Term) String() string {
	switch t.Kind {
	case TVar:
		return t.Name
	case TConst:
		// Constants whose names are not plain identifiers or numerals are
		// quoted so that parsing round-trips.
		if isPlainName(t.Name) {
			return t.Name
		}
		return fmt.Sprintf("%q", t.Name)
	case TApp:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = a.String()
		}
		return t.Name + "(" + strings.Join(parts, ", ") + ")"
	}
	return "?"
}

// isPlainName reports whether s parses as one identifier or numeral
// token: digits only, or a letter or underscore followed by letters,
// digits and underscores. A name such as "0A" lexes as two tokens, so it
// is quoted.
func isPlainName(s string) bool {
	if s == "" {
		return false
	}
	numeral := s[0] >= '0' && s[0] <= '9'
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
		case !numeral && (r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_'):
		default:
			return false
		}
	}
	return true
}

// Vars appends the names of all variables occurring in t to dst and returns
// the extended slice. Duplicates are not removed.
func (t Term) Vars(dst []string) []string {
	switch t.Kind {
	case TVar:
		return append(dst, t.Name)
	case TApp:
		for _, a := range t.Args {
			dst = a.Vars(dst)
		}
	}
	return dst
}

// HasVar reports whether variable name occurs in t.
func (t Term) HasVar(name string) bool {
	switch t.Kind {
	case TVar:
		return t.Name == name
	case TApp:
		for _, a := range t.Args {
			if a.HasVar(name) {
				return true
			}
		}
	}
	return false
}

// Ground reports whether t contains no variables.
func (t Term) Ground() bool {
	switch t.Kind {
	case TVar:
		return false
	case TApp:
		for _, a := range t.Args {
			if !a.Ground() {
				return false
			}
		}
	}
	return true
}

// SubstTerm returns t with every occurrence of variable name replaced by
// replacement.
func (t Term) SubstTerm(name string, replacement Term) Term {
	switch t.Kind {
	case TVar:
		if t.Name == name {
			return replacement
		}
		return t
	case TApp:
		args := make([]Term, len(t.Args))
		changed := false
		for i, a := range t.Args {
			args[i] = a.SubstTerm(name, replacement)
			if !args[i].Equal(a) {
				changed = true
			}
		}
		if !changed {
			return t
		}
		return Term{Kind: TApp, Name: t.Name, Args: args}
	}
	return t
}

// Constants appends the names of all constants occurring in t to dst.
func (t Term) Constants(dst []string) []string {
	switch t.Kind {
	case TConst:
		return append(dst, t.Name)
	case TApp:
		for _, a := range t.Args {
			dst = a.Constants(dst)
		}
	}
	return dst
}

// SortedUnique sorts names and removes duplicates in place, returning the
// deduplicated slice. It is a small utility shared by free-variable and
// constant collection.
func SortedUnique(names []string) []string {
	sort.Strings(names)
	out := names[:0]
	for i, n := range names {
		if i == 0 || names[i-1] != n {
			out = append(out, n)
		}
	}
	return out
}
