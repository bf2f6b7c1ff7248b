package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.5, 50, true},
		{100, 0.99, 99, false}, // one sample beyond
		{1000, 0.99, 990, true},
		{1009, 0.99, 999, true}, // rank ceil(998.91) = 999, ten beyond
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := nearestRank(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("nearestRank(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := nearestRank(nil, 0.5); ok {
		t.Error("empty input reported a percentile")
	}
}

func TestDistReportsOnlyWithTenBeyond(t *testing.T) {
	d := dist{xs: seq(2000)}
	if got := d.at(0.99); got != (pctl{Value: 1980, Q: 0.99, N: 2000}) {
		t.Errorf("p99 of 2000 = %+v", got)
	}
	// 200 samples: p99 has two beyond it, so the highest percentile with ten
	// beyond (rank 190, q 0.95) is reported, labelled as such.
	d = dist{xs: seq(200)}
	if got := d.at(0.99); got != (pctl{Value: 190, Q: 0.95, N: 200}) {
		t.Errorf("p99 of 200 = %+v", got)
	}
	d = dist{xs: seq(5)}
	if got := d.at(0.5); got != (pctl{N: 5}) {
		t.Errorf("p50 of 5 = %+v, want nothing reported", got)
	}
	d = dist{xs: []float64{1, math.Inf(1), 2}}
	for i := 0; i < 30; i++ {
		d.add(math.Inf(1))
	}
	if got := d.at(0.5).Value; got != 1e12 {
		t.Errorf("failed operations should report as 1e12, got %g", got)
	}
}
