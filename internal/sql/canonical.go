// canonical.go renders a parsed SELECT back to a normalized string: upper
// case keywords, single spaces, aliases only where they differ from the
// source name, strings re-quoted with doubled quotes. Two statements that parse
// to the same AST canonicalize identically, so the canonical form is the
// plan-cache key of the serving layer — a client may vary whitespace and
// keyword case freely and still hit the same cached plan. Identifiers are
// case-sensitive in this dialect and are rendered as written.
package sql

import "strconv"

// Canonical renders the statement in normalized form, suitable as a cache
// key: parse(s).Canonical() == parse(t).Canonical() exactly when s and t
// are the same statement up to whitespace and keyword case.
func (s *Stmt) Canonical() string { return string(s.AppendCanonical(nil)) }

// AppendCanonical appends the canonical form to b, so a caller with a buffer
// renders it without allocating.
func (s *Stmt) AppendCanonical(b []byte) []byte {
	b = append(b, "SELECT "...)
	if s.Star {
		b = append(b, '*')
	}
	for i, c := range s.Select {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = c.appendTo(b)
	}
	b = append(b, " FROM "...)
	for i, t := range s.From {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, t.Source...)
		if t.Alias != t.Source {
			b = append(append(b, " AS "...), t.Alias...)
		}
	}
	for i, c := range s.Where {
		if i == 0 {
			b = append(b, " WHERE "...)
		} else {
			b = append(b, " AND "...)
		}
		b = appendOperand(b, c.Left)
		b = append(append(append(b, ' '), c.Op...), ' ')
		b = appendOperand(b, c.Right)
	}
	for i, o := range s.OrderBy {
		if i == 0 {
			b = append(b, " ORDER BY "...)
		} else {
			b = append(b, ", "...)
		}
		b = o.Col.appendTo(b)
		if o.Desc {
			b = append(b, " DESC"...)
		}
	}
	if s.Limit >= 0 {
		b = strconv.AppendInt(append(b, " LIMIT "...), int64(s.Limit), 10)
	}
	return b
}

func (c ColRef) appendTo(b []byte) []byte {
	if c.Table != "" {
		b = append(append(b, c.Table...), '.')
	}
	return append(b, c.Col...)
}

func appendOperand(b []byte, o Operand) []byte {
	switch o.Kind {
	case OpCol:
		return o.Col.appendTo(b)
	case OpInt:
		return strconv.AppendInt(b, o.Int, 10)
	}
	b = append(b, '\'')
	for i := 0; i < len(o.Str); i++ {
		if o.Str[i] == '\'' {
			b = append(b, '\'')
		}
		b = append(b, o.Str[i])
	}
	return append(b, '\'')
}
