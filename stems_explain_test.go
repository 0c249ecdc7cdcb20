package stems

import (
	"strings"
	"testing"
	"time"
)

func threeTableJoin() *Query {
	return NewQuery().
		Table("A", Ints("k", "x"), [][]int64{{1, 5}, {2, 6}, {3, 5}}).
		Table("B", Ints("x", "y"), [][]int64{{5, 7}, {6, 8}}).
		Table("C", Ints("y", "v"), [][]int64{{7, 70}, {8, 80}, {7, 71}}).
		Scan("A", time.Millisecond).
		Scan("B", time.Millisecond).
		Scan("C", time.Millisecond).
		Where("A.x", "=", "B.x").
		Where("B.y", "=", "C.y")
}

func TestExplainReport(t *testing.T) {
	res, err := threeTableJoin().Run(Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain == "" {
		t.Fatal("Explain empty")
	}
	for _, want := range []string{"SteM(A)", "SteM(B)", "SteM(C)", "AM(A/scan)", "results"} {
		if !strings.Contains(res.Explain, want) {
			t.Errorf("Explain missing %q:\n%s", want, res.Explain)
		}
	}
}

func TestOnPartialStreamsIntermediates(t *testing.T) {
	var partials []Row
	res, err := threeTableJoin().Run(Options{
		OnPartial: func(r Row) { partials = append(partials, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no results")
	}
	if len(partials) == 0 {
		t.Fatal("no partial results streamed")
	}
	for _, p := range partials {
		// Partials must span 2 tables (of 3), never all.
		if _, okA := p.Get("A.k"); okA {
			if _, okC := p.Get("C.v"); okC {
				if _, okB := p.Get("B.x"); okB {
					t.Fatal("full-span tuple delivered as partial")
				}
			}
		}
	}
}

func TestExplainOnConcurrent(t *testing.T) {
	res, err := threeTableJoin().Run(Options{Engine: Concurrent, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no results")
	}
	if res.Explain == "" {
		t.Fatal("Explain empty on the concurrent engine")
	}
	for _, want := range []string{"SteM(A)", "SteM(B)", "SteM(C)", "results"} {
		if !strings.Contains(res.Explain, want) {
			t.Errorf("Explain missing %q:\n%s", want, res.Explain)
		}
	}
}

func TestDeadlineStopsEarly(t *testing.T) {
	// Slow scans + a deadline before the first row arrives: zero results,
	// no error.
	q := NewQuery().
		Table("A", Ints("k"), [][]int64{{1}}).
		Table("B", Ints("k"), [][]int64{{1}}).
		Scan("A", time.Second).
		Scan("B", time.Second).
		Where("A.k", "=", "B.k")
	res, err := q.Run(Options{Deadline: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("deadline run produced %d rows", len(res.Rows))
	}
}
