// canonical.go renders a parsed SELECT back to a normalized string: upper
// case keywords, single spaces, aliases only where they differ from the
// source name, strings re-quoted with ” escapes. Two statements that parse
// to the same AST canonicalize identically, so the canonical form is the
// plan-cache key of the serving layer — a client may vary whitespace and
// keyword case freely and still hit the same cached plan. Identifiers are
// case-sensitive in this dialect and are rendered as written.
package sql

import (
	"strconv"
	"strings"
)

// Canonical renders the statement in normalized form, suitable as a cache
// key: parse(s).Canonical() == parse(t).Canonical() exactly when s and t
// are the same statement up to whitespace and keyword case.
func (s *Stmt) Canonical() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Star {
		b.WriteByte('*')
	} else {
		for i, c := range s.Select {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Source)
		if t.Alias != t.Source {
			b.WriteString(" AS ")
			b.WriteString(t.Alias)
		}
	}
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, c := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			writeOperand(&b, c.Left)
			b.WriteByte(' ')
			b.WriteString(c.Op)
			b.WriteByte(' ')
			writeOperand(&b, c.Right)
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Col.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(s.Limit))
	}
	return b.String()
}

func writeOperand(b *strings.Builder, o Operand) {
	switch o.Kind {
	case OpCol:
		b.WriteString(o.Col.String())
	case OpInt:
		b.WriteString(strconv.FormatInt(o.Int, 10))
	case OpStr:
		b.WriteByte('\'')
		b.WriteString(strings.ReplaceAll(o.Str, "'", "''"))
		b.WriteByte('\'')
	}
}
