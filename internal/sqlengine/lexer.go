// Package sqlengine implements the in-memory relational engine that stands
// in for MySQL 4.0 in this reproduction. It executes a practical SQL
// subset (CREATE TABLE / DROP TABLE / INSERT / SELECT / UPDATE / DELETE
// with WHERE, ORDER BY and LIMIT) over typed tables.
//
// The engine exists because the paper's C-JDBC layer keeps database
// replicas consistent by *logging write-request strings* and replaying
// them on a stale replica before activation (§4.1). Testing that protocol
// honestly requires real statement execution and state comparison, which
// Snapshot and Fingerprint provide.
package sqlengine

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , = < > <= >= != <> * .
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	// RUBiS statements average four bytes per token and none has more
	// than one token per three bytes (plus EOF), so this capacity is
	// allocated once and never grown for them.
	l := &lexer{src: src, tokens: make([]token, 0, len(src)/3+4)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case unicode.IsLetter(rune(c)) || c == '_':
			l.lexIdent()
		case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1]))):
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case strings.ContainsRune("(),=*.", rune(c)):
			l.emit(tokSymbol, string(c))
			l.pos++
		case c == '<' || c == '>' || c == '!':
			start := l.pos
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '=' || (c == '<' && l.src[l.pos] == '>')) {
				l.pos++
			}
			sym := l.src[start:l.pos]
			if sym == "!" {
				return nil, fmt.Errorf("sql: stray '!' at %d", start)
			}
			l.emit(tokSymbol, sym)
		case c == ';':
			l.pos++ // trailing statement separator is tolerated
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
		}
	}
	l.emit(tokEOF, "")
	return l.tokens, nil
}

func (l *lexer) emit(k tokenKind, text string) {
	l.tokens = append(l.tokens, token{kind: k, text: text, pos: l.pos})
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.src[l.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			l.pos++
		} else {
			break
		}
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsDigit(rune(c)) {
			l.pos++
		} else if c == '.' && !seenDot {
			seenDot = true
			l.pos++
		} else {
			break
		}
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote, as in standard SQL.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sql: unterminated string starting at %d", start)
}

// QuoteString renders a Go string as a SQL string literal.
func QuoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}
