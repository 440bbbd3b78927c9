package parser

import (
	"fmt"

	"repro/internal/logic"
)

// Options control how identifiers in term position are classified.
type Options struct {
	// Constants lists identifiers that denote constants rather than
	// variables. Numerals and quoted strings are always constants.
	Constants map[string]bool
	// Functions lists identifiers that denote functions; an identifier
	// followed by "(" in term position must be in this set (in formula
	// position it is a predicate).
	Functions map[string]bool
}

// maxDepth caps how deeply a parsed formula nests: a path through its
// tree, counting connectives, negations, quantifiers, atoms and function
// applications, is at most maxDepth nodes long. Printing, canonical keys,
// normal forms and evaluation all recurse over that tree, and a stack
// overflow is a fatal error that no recover catches, so without the cap
// one request could end the process. Written and generated queries nest a
// handful of levels.
const maxDepth = 1000

// maxNesting bounds the parser's own recursion: open parentheses,
// negations, quantifiers, implication and bi-implication chains, and
// function applications each take one level. Printing a formula writes
// at most two of these per tree node (~(~P(x)) for a double negation),
// so every formula within maxDepth prints to text within maxNesting and
// parses back.
const maxNesting = 2 * maxDepth

// Parse parses a formula with default options: all plain identifiers in term
// position are variables.
func Parse(input string) (*logic.Formula, error) {
	return ParseWith(input, Options{})
}

// ParseWith parses a formula under the given identifier classification.
func ParseWith(input string, opts Options) (*logic.Formula, error) {
	p := &parser{lex: lexer{input: input}, opts: opts}
	f, err := p.parseFormula()
	if err := p.finish(err); err != nil {
		return nil, err
	}
	if depth(f) > maxDepth {
		return nil, fmt.Errorf("parser: formula nests deeper than %d levels", maxDepth)
	}
	return f, nil
}

// depth is the length of the longest path through f's tree, counting
// function applications inside atoms.
func depth(f *logic.Formula) int {
	d := 0
	for _, s := range f.Sub {
		d = max(d, depth(s))
	}
	for _, t := range f.Args {
		d = max(d, termDepth(t))
	}
	return d + 1
}

func termDepth(t logic.Term) int {
	if t.Kind != logic.TApp {
		return 0
	}
	d := 0
	for _, a := range t.Args {
		d = max(d, termDepth(a))
	}
	return d + 1
}

// MustParse is Parse panicking on error; for tests and package examples.
func MustParse(input string) *logic.Formula {
	f, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return f
}

// MustParseWith is ParseWith panicking on error.
func MustParseWith(input string, opts Options) *logic.Formula {
	f, err := ParseWith(input, opts)
	if err != nil {
		panic(err)
	}
	return f
}

// ParseTerm parses a single term.
func ParseTerm(input string, opts Options) (logic.Term, error) {
	p := &parser{lex: lexer{input: input}, opts: opts}
	t, err := p.parseTerm()
	if err := p.finish(err); err != nil {
		return logic.Term{}, err
	}
	return t, nil
}

// parser reads tokens from its lexer through a two-token window: look[0]
// is the current token and look[1], when n is 2, the one after it.
type parser struct {
	lex  lexer
	look [2]token
	n    int
	// lexErr is the first lexing error. The lexer reports end of input
	// after it, and the parse returns it in place of whatever error the
	// truncated input caused.
	lexErr error
	opts   Options
	// nesting counts the levels open at the current token (maxNesting).
	nesting int
}

// finish is the outcome of a parse that returned err: the first lexing
// error if there was one, else err, else an error for trailing input.
func (p *parser) finish(err error) error {
	if err == nil && p.peek().kind != tokEOF {
		err = p.errorf("trailing input starting with %v", p.peek().kind)
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// descend opens a nesting level; the caller closes it with nesting--
// once the nested part is parsed.
func (p *parser) descend() error {
	if p.nesting++; p.nesting > maxNesting {
		return p.errorf("formula nests deeper than %d levels", maxDepth)
	}
	return nil
}

// fill buffers k tokens of lookahead (k is 1 or 2).
func (p *parser) fill(k int) {
	for p.n < k {
		t, err := p.lex.next()
		if err != nil {
			p.lexErr = err
			p.lex.pos = len(p.lex.input)
			t = token{kind: tokEOF, pos: p.lex.pos}
		}
		p.look[p.n] = t
		p.n++
	}
}

func (p *parser) peek() token {
	p.fill(1)
	return p.look[0]
}

func (p *parser) next() token {
	t := p.peek()
	if t.kind != tokEOF {
		p.look[0] = p.look[1]
		p.n--
	}
	return t
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return t, p.errorf("expected %v, found %v", kind, t.kind)
	}
	return p.next(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("parser: offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseFormula() (*logic.Formula, error) { return p.parseIff() }

func (p *parser) parseIff() (*logic.Formula, error) {
	left, err := p.parseImplies()
	if err != nil {
		return nil, err
	}
	// Each <-> nests the chain so far one level deeper.
	opened := 0
	for p.peek().kind == tokIff {
		p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		opened++
		right, err := p.parseImplies()
		if err != nil {
			return nil, err
		}
		left = logic.Iff(left, right)
	}
	p.nesting -= opened
	return left, nil
}

func (p *parser) parseImplies() (*logic.Formula, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokImplies {
		p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		right, err := p.parseImplies() // right associative
		if err != nil {
			return nil, err
		}
		p.nesting--
		return logic.Implies(left, right), nil
	}
	return left, nil
}

func (p *parser) parseOr() (*logic.Formula, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	parts := []*logic.Formula{left}
	for p.peek().kind == tokOr {
		p.next()
		f, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		parts = append(parts, f)
	}
	return logic.Or(parts...), nil
}

func (p *parser) parseAnd() (*logic.Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	parts := []*logic.Formula{left}
	for p.peek().kind == tokAnd {
		p.next()
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		parts = append(parts, f)
	}
	return logic.And(parts...), nil
}

func (p *parser) parseUnary() (*logic.Formula, error) {
	switch t := p.peek(); t.kind {
	case tokNot:
		p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.nesting--
		return logic.Not(f), nil
	case tokIdent:
		switch t.text {
		case "exists", "forall":
			p.next()
			v, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokDot); err != nil {
				return nil, err
			}
			if err := p.descend(); err != nil {
				return nil, err
			}
			body, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			p.nesting--
			if t.text == "exists" {
				return logic.Exists(v.text, body), nil
			}
			return logic.Forall(v.text, body), nil
		}
	}
	return p.parseAtom()
}

func (p *parser) parseAtom() (*logic.Formula, error) {
	t := p.peek()
	switch t.kind {
	case tokLParen:
		p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		p.nesting--
		return f, nil
	case tokIdent:
		switch t.text {
		case "true":
			p.next()
			return logic.True(), nil
		case "false":
			p.next()
			return logic.False(), nil
		}
		// Predicate atom P(args) unless followed by =/!= (then it is the
		// start of a term) or the identifier is a declared function.
		if p.lookaheadIsCall() && !p.opts.Functions[t.text] {
			p.next()
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return logic.Atom(t.text, args...), nil
		}
	}
	// term (= | !=) term
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	switch p.peek().kind {
	case tokEq:
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return logic.Eq(left, right), nil
	case tokNeq:
		p.next()
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return logic.Neq(left, right), nil
	}
	return nil, p.errorf("expected '=' or '!=' after term, found %v", p.peek().kind)
}

// lookaheadIsCall reports whether the current identifier is followed by "(".
func (p *parser) lookaheadIsCall() bool {
	p.fill(2)
	return p.look[1].kind == tokLParen
}

func (p *parser) parseArgs() ([]logic.Term, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var args []logic.Term
	if p.peek().kind != tokRParen {
		for {
			t, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			args = append(args, t)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *parser) parseTerm() (logic.Term, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		return logic.Const(t.text), nil
	case tokString:
		p.next()
		return logic.Const(t.text), nil
	case tokIdent:
		p.next()
		if p.peek().kind == tokLParen {
			if err := p.descend(); err != nil {
				return logic.Term{}, err
			}
			args, err := p.parseArgs()
			if err != nil {
				return logic.Term{}, err
			}
			p.nesting--
			return logic.App(t.text, args...), nil
		}
		if p.opts.Constants[t.text] {
			return logic.Const(t.text), nil
		}
		return logic.Var(t.text), nil
	}
	return logic.Term{}, p.errorf("expected term, found %v", t.kind)
}
