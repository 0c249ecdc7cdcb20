// Package schema describes base tables: their names and typed columns.
//
// A query references tables by position in its FROM list (Definition 1 in the
// paper speaks of base-table components T1..Tn); the schema package maps those
// positions to concrete table definitions held in a Catalog.
package schema

import (
	"fmt"

	"repro/internal/value"
)

// Column is a named, typed column of a base table.
type Column struct {
	Name string
	Kind value.Kind
}

// Table describes a base table.
type Table struct {
	Name string
	Cols []Column
}

// NewTable builds a table definition. Column names must be unique.
func NewTable(name string, cols ...Column) (*Table, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: table %s has an unnamed column", name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("schema: table %s has duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
	}
	return &Table{Name: name, Cols: cols}, nil
}

// MustTable is NewTable but panics on error; intended for tests and examples.
func MustTable(name string, cols ...Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// IntCol is shorthand for an integer column.
func IntCol(name string) Column { return Column{Name: name, Kind: value.Int} }

// StrCol is shorthand for a string column.
func StrCol(name string) Column { return Column{Name: name, Kind: value.Str} }

// ColIndex returns the position of the named column, or -1 if absent.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Arity returns the number of columns.
func (t *Table) Arity() int { return len(t.Cols) }
