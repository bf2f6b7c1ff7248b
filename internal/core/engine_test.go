package core

import "testing"

// TestMergeAnswers pins Merge, the one partial-answer merge behind the
// shard gather and the router's placed-index fan-out.
func TestMergeAnswers(t *testing.T) {
	sum := Merge(Sum, []Result{
		{Value: 10, Found: true, Bound: 2},
		{Found: false},
		{Value: 5, Found: true, Bound: 1},
	})
	if sum.Value != 15 || sum.Bound != 3 || !sum.Found {
		t.Fatalf("sum merge: %+v", sum)
	}
	min := Merge(Min, []Result{
		{Value: 10, Found: true, Bound: 2},
		{Value: 5, Found: true, Bound: 1},
	})
	if min.Value != 5 || min.Bound != 2 || !min.Found {
		t.Fatalf("min merge: %+v", min)
	}
	max := Merge(Max, []Result{
		{Value: 10, Found: true, Bound: 2},
		{Value: 50, Found: true, Bound: 7},
	})
	if max.Value != 50 || max.Bound != 7 {
		t.Fatalf("max merge: %+v", max)
	}
	empty := Merge(Sum, []Result{{Found: false}, {Found: false}})
	if empty.Found || empty.Value != 0 {
		t.Fatalf("empty merge: %+v", empty)
	}
	exact := Merge(Sum, []Result{
		{Value: 1, Found: true, Exact: true},
		{Value: 2, Found: true, Exact: false},
	})
	if exact.Exact {
		t.Fatalf("mixed exactness must not report exact: %+v", exact)
	}
}
