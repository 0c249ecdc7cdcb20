package stems

import (
	"testing"
	"time"
)

func aggFixture(t *testing.T) []Row {
	t.Helper()
	res, err := NewQuery().
		Table("emp", Ints("id", "dept", "pay"), [][]int64{
			{1, 10, 100}, {2, 10, 150}, {3, 20, 90}, {4, 20, 60}, {5, 20, 70},
		}).
		Table("dept", Ints("id"), [][]int64{{10}, {20}}).
		Scan("emp", time.Millisecond).
		Scan("dept", time.Millisecond).
		Where("emp.dept", "=", "dept.id").
		Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

func TestGroupCount(t *testing.T) {
	rows := aggFixture(t)
	groups := GroupCount(rows, "emp.dept")
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if groups[0].Key != "10" || groups[0].Count != 2 {
		t.Errorf("group 10 = %+v", groups[0])
	}
	if groups[1].Key != "20" || groups[1].Count != 3 {
		t.Errorf("group 20 = %+v", groups[1])
	}
}

func TestGroupSum(t *testing.T) {
	rows := aggFixture(t)
	agg := NewAggregator([]string{"emp.dept"}, "emp.pay")
	for _, r := range rows {
		agg.Add(r)
	}
	groups := agg.Groups()
	if groups[0].Sum != 250 || groups[0].Min != 100 || groups[0].Max != 150 {
		t.Errorf("group 10 = %+v", groups[0])
	}
	if groups[1].Sum != 220 || groups[1].Min != 60 || groups[1].Max != 90 {
		t.Errorf("group 20 = %+v", groups[1])
	}
	if groups[0].String() == "" {
		t.Error("String must render")
	}
}

func TestAggregatorStreaming(t *testing.T) {
	// Online aggregation: fold rows as the engine emits them.
	agg := NewAggregator([]string{"emp.dept"}, "emp.pay")
	_, err := NewQuery().
		Table("emp", Ints("id", "dept", "pay"), [][]int64{
			{1, 10, 100}, {2, 10, 150}, {3, 20, 90},
		}).
		Table("dept", Ints("id"), [][]int64{{10}, {20}}).
		Scan("emp", time.Millisecond).
		Scan("dept", time.Millisecond).
		Where("emp.dept", "=", "dept.id").
		Run(Options{OnResult: agg.Add})
	if err != nil {
		t.Fatal(err)
	}
	groups := agg.Groups()
	if len(groups) != 2 || groups[0].Sum != 250 {
		t.Errorf("streamed groups = %v", groups)
	}
}

func TestAggregatorMultiKey(t *testing.T) {
	rows := aggFixture(t)
	a := NewAggregator([]string{"emp.dept", "dept.id"}, "")
	for _, r := range rows {
		a.Add(r)
	}
	groups := a.Groups()
	if len(groups) != 2 || groups[0].Key != "10,10" {
		t.Errorf("multi-key groups = %v", groups)
	}
}
