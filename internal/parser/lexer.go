// Package parser parses the concrete formula syntax used by the command-line
// tools and tests, and printed by logic.Formula.String:
//
//	formula  := iff
//	iff      := implies ("<->" implies)*
//	implies  := or ("->" or)*          (right associative)
//	or       := and ("|" and)*
//	and      := unary ("&" unary)*
//	unary    := "~" unary | "exists" ident "." unary | "forall" ident "." unary | atom
//	atom     := "true" | "false" | "(" formula ")"
//	          | term ("=" | "!=") term | ident "(" terms ")"
//	term     := ident | quoted-string | ident "(" terms ")"
//
// Identifiers starting with a lower- or upper-case letter can be variables,
// constants, or symbols; plain numerals and quoted strings are constants.
// An identifier in term position is a variable unless it is declared a
// constant via Options.Constants or appears in Options.Vars as false.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokEq
	tokNeq
	tokNot
	tokAnd
	tokOr
	tokImplies
	tokIff
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokEq:
		return "'='"
	case tokNeq:
		return "'!='"
	case tokNot:
		return "'~'"
	case tokAnd:
		return "'&'"
	case tokOr:
		return "'|'"
	case tokImplies:
		return "'->'"
	case tokIff:
		return "'<->'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer scans a formula string one token at a time. The parser pulls
// tokens as it needs them, so an input the parser refuses early (the
// nesting cap, say) is never tokenized past the point of refusal.
type lexer struct {
	input string
	pos   int
}

// next scans the token at the current position; at the end of the input
// it returns tokEOF, every time it is called.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if start >= len(l.input) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.input[start]
	kind, width := tokEOF, 1
	switch {
	case c == '(':
		kind = tokLParen
	case c == ')':
		kind = tokRParen
	case c == ',':
		kind = tokComma
	case c == '.':
		kind = tokDot
	case c == '=':
		kind = tokEq
	case c == '~':
		kind = tokNot
	case c == '&':
		kind = tokAnd
	case c == '|':
		kind = tokOr
	case strings.HasPrefix(l.input[start:], "!="):
		kind, width = tokNeq, 2
	case strings.HasPrefix(l.input[start:], "->"):
		kind, width = tokImplies, 2
	case strings.HasPrefix(l.input[start:], "<->"):
		kind, width = tokIff, 3
	case c == '"':
		s, err := l.lexString()
		if err != nil {
			return token{}, err
		}
		return token{kind: tokString, text: s, pos: start}, nil
	case isDigit(rune(c)):
		kind = tokNumber
		for width < len(l.input)-start && isDigit(rune(l.input[start+width])) {
			width++
		}
	case isIdentStart(rune(c)):
		kind = tokIdent
		for width < len(l.input)-start && isIdentPart(rune(l.input[start+width])) {
			width++
		}
	default:
		return token{}, fmt.Errorf("parser: unexpected %q at offset %d", c, start)
	}
	l.pos += width
	return token{kind: kind, text: l.input[start:l.pos], pos: start}, nil
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.input) && unicode.IsSpace(rune(l.input[l.pos])) {
		l.pos++
	}
}

func (l *lexer) lexString() (string, error) {
	start := l.pos
	// Find the closing quote, honoring backslash escapes, then let
	// strconv.Unquote decode the body.
	i := l.pos + 1
	for i < len(l.input) {
		switch l.input[i] {
		case '\\':
			i += 2
			continue
		case '"':
			raw := l.input[start : i+1]
			s, err := strconv.Unquote(raw)
			if err != nil {
				return "", fmt.Errorf("parser: bad string literal at offset %d: %v", start, err)
			}
			l.pos = i + 1
			return s, nil
		}
		i++
	}
	return "", fmt.Errorf("parser: unterminated string literal at offset %d", start)
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || isDigit(r)
}
