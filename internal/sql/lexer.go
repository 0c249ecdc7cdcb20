// Package sql is a small SQL front-end for the select-project-join dialect
// the paper's system executes: SELECT list, FROM list with aliases (enabling
// self-joins, which share one SteM per source — Section 2.2), and a WHERE
// conjunction of comparisons. The binder turns a parsed statement into the
// engine's query model against a catalog of sources.
//
// The parser pulls one token at a time from the source string; a token's
// text is a slice of the source (keywords, symbols and operators are
// constants), so a statement costs allocations for its AST, not for its
// tokens. Identifiers are Unicode letters, digits and '_' (not starting with
// a digit); keywords are ASCII and case-insensitive. Integers are int64: a
// literal outside that range is an error, not a wrapped value.
package sql

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind classifies lexer tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // , ( ) . *
	tokOp      // = <> != < <= > >=
	tokKeyword // SELECT FROM WHERE AND AS ORDER BY LIMIT ASC DESC
)

// keywords are the reserved words, upper-cased.
var keywords = [...]string{"SELECT", "FROM", "WHERE", "AND", "AS", "ORDER", "BY", "LIMIT", "ASC", "DESC"}

// operators maps each operator spelling to its text, longest first; != is
// the same comparison as <>.
var operators = [...]struct{ src, text string }{
	{"<=", "<="}, {"<>", "<>"}, {">=", ">="}, {"!=", "<>"}, {"=", "="}, {"<", "<"}, {">", ">"},
}

const symbols = ",().*"

// token is one lexeme. Its text is a slice of the source, except for a
// keyword (its upper-case spelling), a symbol or operator (a constant) and a
// string literal with a doubled quote (its unescaped copy).
type token struct {
	kind tokKind
	text string
	pos  int   // byte offset in the source
	num  int64 // a tokNumber's value
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// scan returns the token starting at or after byte offset i of src and the
// offset just past it. Errors carry byte positions and come with an
// end-of-input token.
func scan(src string, i int) (token, int, error) {
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	if i == len(src) {
		return token{kind: tokEOF, pos: i}, i, nil
	}
	t := token{pos: i}
	c := src[i]
	if k := strings.IndexByte(symbols, c); k >= 0 {
		t.kind, t.text = tokSymbol, symbols[k:k+1]
		return t, i + 1, nil
	}
	switch {
	case c == '=' || c == '<' || c == '>' || c == '!':
		for _, op := range operators {
			if strings.HasPrefix(src[i:], op.src) {
				t.kind, t.text = tokOp, op.text
				return t, i + len(op.src), nil
			}
		}
		return t, i, fmt.Errorf("sql: position %d: unexpected %q", i, c)
	case c == '\'':
		escaped := false
		for j := i + 1; j < len(src); j++ {
			if src[j] != '\'' {
				continue
			}
			if j+1 < len(src) && src[j+1] == '\'' {
				escaped = true
				j++
				continue
			}
			t.kind, t.text = tokString, src[i+1:j]
			if escaped {
				t.text = strings.ReplaceAll(t.text, "''", "'")
			}
			return t, j + 1, nil
		}
		return t, i, fmt.Errorf("sql: position %d: unterminated string", i)
	case c == '-' || (c >= '0' && c <= '9'):
		j, limit := i, uint64(math.MaxInt64)
		if c == '-' {
			j, limit = i+1, limit+1
			if j >= len(src) || src[j] < '0' || src[j] > '9' {
				return t, i, fmt.Errorf("sql: position %d: unexpected '-'", i)
			}
		}
		var u uint64
		for ; j < len(src) && src[j] >= '0' && src[j] <= '9'; j++ {
			d := uint64(src[j] - '0')
			if u > (limit-d)/10 {
				return t, i, fmt.Errorf("sql: position %d: integer out of range", i)
			}
			u = u*10 + d
		}
		t.kind, t.text, t.num = tokNumber, src[i:j], int64(u)
		if c == '-' {
			t.num = -t.num
		}
		return t, j, nil
	}
	j := i // an identifier; only a byte >= 0x80 is decoded as UTF-8
	for j < len(src) {
		r, size := rune(src[j]), 1
		if r >= utf8.RuneSelf {
			if r, size = utf8.DecodeRuneInString(src[j:]); r == utf8.RuneError && size == 1 {
				return t, j, fmt.Errorf("sql: position %d: invalid UTF-8", j)
			}
		}
		if j == i && !isIdentStart(r) {
			return t, i, fmt.Errorf("sql: position %d: unexpected %q", i, r)
		}
		if !isIdentPart(r) {
			break
		}
		j += size
	}
	t.kind, t.text = tokIdent, src[i:j]
	for _, kw := range keywords {
		// Equal byte lengths leave EqualFold only ASCII folds: a non-ASCII
		// rune takes more bytes than the letter it would fold to.
		if len(t.text) == len(kw) && strings.EqualFold(t.text, kw) {
			t.kind, t.text = tokKeyword, kw
		}
	}
	return t, j, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
