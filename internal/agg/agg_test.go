package agg

import "testing"

func TestAggSpecString(t *testing.T) {
	if got := (AggSpec{Func: Sum, Attr: "x", As: "b"}).String(); got != "sum(x)->b" {
		t.Errorf("AggSpec String = %q", got)
	}
	if got := (AggSpec{Func: Count, As: "c"}).String(); got != "count(*)->c" {
		t.Errorf("Count String = %q", got)
	}
}

func TestAggFuncString(t *testing.T) {
	names := map[AggFunc]string{Count: "count", Sum: "sum", Min: "min", Max: "max", Avg: "avg", AggFunc(9): "agg(9)"}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("AggFunc(%d) = %q want %q", f, f.String(), want)
		}
	}
}
