package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators: ( ) , . * + - / = <> < <= > >= !=
	tokHint   // /*+ ... */ optimizer hint; text carries the hint body
)

// token is one lexical unit with its source position for error messages.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer splits HiveQL text into tokens. Keywords are returned as tokIdent;
// the parser matches them case-insensitively.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises src or returns a positioned error.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '/' && l.pos+2 < len(l.src) && l.src[l.pos+1] == '*' && l.src[l.pos+2] == '+':
			if err := l.lexHint(); err != nil {
				return nil, err
			}
		case isIdentStart(rune(c)):
			l.lexIdent()
		case c >= '0' && c <= '9':
			l.lexNumber()
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if !l.lexSymbol() {
				return nil, fmt.Errorf("query: unexpected character %q at offset %d", c, start)
			}
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		// /* ... */ block comments. /*+ ... */ is an optimizer hint and is
		// emitted as a token rather than skipped.
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*' {
			if l.pos+2 < len(l.src) && l.src[l.pos+2] == '+' {
				return // leave for lexHint via the main loop
			}
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.src) {
				l.pos = len(l.src)
			}
			continue
		}
		return
	}
}

// lexHint consumes a /*+ ... */ optimizer hint and emits its body.
func (l *lexer) lexHint() error {
	start := l.pos
	l.pos += 3 // "/*+"
	body := l.pos
	for l.pos+1 < len(l.src) {
		if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
			l.toks = append(l.toks, token{kind: tokHint, text: l.src[body:l.pos], pos: start})
			l.pos += 2
			return nil
		}
		l.pos++
	}
	return fmt.Errorf("query: unterminated hint at offset %d", start)
}

func isIdentStart(c rune) bool {
	return unicode.IsLetter(c) || c == '_'
}

func isIdentPart(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	// An exponent, [eE][+-]?digits: the renderer prints large and small
	// magnitudes in %g form (1e+06, 1.25e-05), and normalized text must
	// parse back. Without digits after it the 'e' starts the next token.
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		e := l.pos + 1
		if e < len(l.src) && (l.src[e] == '+' || l.src[e] == '-') {
			e++
		}
		digits := e
		for e < len(l.src) && l.src[e] >= '0' && l.src[e] <= '9' {
			e++
		}
		if e > digits {
			l.pos = e
		}
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("query: unterminated string literal at offset %d", start)
}

// twoCharSymbols are matched before single characters.
var twoCharSymbols = []string{"<>", "<=", ">=", "!="}

func (l *lexer) lexSymbol() bool {
	rest := l.src[l.pos:]
	for _, s := range twoCharSymbols {
		if strings.HasPrefix(rest, s) {
			l.toks = append(l.toks, token{kind: tokSymbol, text: s, pos: l.pos})
			l.pos += len(s)
			return true
		}
	}
	switch rest[0] {
	case '(', ')', ',', '.', '*', '+', '-', '/', '=', '<', '>', ';':
		l.toks = append(l.toks, token{kind: tokSymbol, text: rest[:1], pos: l.pos})
		l.pos++
		return true
	}
	return false
}
