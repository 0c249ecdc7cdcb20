package schema

import (
	"testing"

	"repro/internal/value"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("R", IntCol("a"), IntCol("a")); err == nil {
		t.Error("duplicate column must be rejected")
	}
	if _, err := NewTable("R", Column{}); err == nil {
		t.Error("unnamed column must be rejected")
	}
	tb, err := NewTable("R", IntCol("a"), StrCol("b"))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Arity() != 2 {
		t.Errorf("Arity = %d", tb.Arity())
	}
	if tb.ColIndex("b") != 1 || tb.ColIndex("z") != -1 {
		t.Error("ColIndex wrong")
	}
	if tb.Cols[0].Kind != value.Int || tb.Cols[1].Kind != value.Str {
		t.Error("column kinds wrong")
	}
}

func TestMustTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustTable must panic on invalid input")
		}
	}()
	MustTable("R", IntCol("a"), IntCol("a"))
}
