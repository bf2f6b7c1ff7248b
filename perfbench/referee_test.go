package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestRefereeAgainstBruteForce checks the exact COUNT and MAX answers, and
// the Fenwick bracket, against linear scans on a small set, with endpoints
// on and between keys, outside the domain, and inverted.
func TestRefereeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 63, 64, 65, 300, 1000} {
		set := map[float64]bool{}
		for len(set) < n {
			set[math.Round(rng.Float64()*1e4)/10] = true
		}
		var keys []float64
		for k := range set {
			keys = append(keys, k)
		}
		sort.Float64s(keys)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		cr, mr := countRef{keys}, newMaxRef(keys, vals)
		fw := make(fenwick, n+1)
		marked := make([]bool, n)
		endpoint := func() float64 {
			if rng.Intn(2) == 0 {
				return keys[rng.Intn(n)]
			}
			return rng.Float64()*1200 - 100
		}
		for q := 0; q < 2000; q++ {
			lo, hi := endpoint(), endpoint()
			if i := rng.Intn(n); q%7 == 0 && !marked[i] {
				fw.add(i)
				marked[i] = true
			}
			wantCount, wantMax, wantFound, wantMarked := 0.0, math.Inf(-1), false, 0
			for i, k := range keys {
				if k > lo && k <= hi {
					wantCount++
					if marked[i] {
						wantMarked++
					}
				}
				if k >= lo && k <= hi {
					wantMax, wantFound = math.Max(wantMax, vals[i]), true
				}
			}
			if got := cr.count(lo, hi); got != wantCount {
				t.Fatalf("n=%d count(%g, %g] = %g, want %g", n, lo, hi, got, wantCount)
			}
			got, found := mr.max(lo, hi)
			if found != wantFound || (found && got != wantMax) {
				t.Fatalf("n=%d max[%g, %g] = %g,%v, want %g,%v", n, lo, hi, got, found, wantMax, wantFound)
			}
			if hi >= lo {
				if got := fw.sum(cr.prefix(hi)) - fw.sum(cr.prefix(lo)); got != wantMarked {
					t.Fatalf("n=%d marked in (%g, %g] = %d, want %d", n, lo, hi, got, wantMarked)
				}
			}
		}
	}
}

func TestWithin(t *testing.T) {
	if !within(105, 100, 100, 5) || within(105.1, 100, 100, 5) || !within(94, 95, 200, 1) || within(93, 95, 200, 1) {
		t.Error("within disagrees with exact ± bound")
	}
}

// TestPaperRanges checks that the ranges are pairs of distinct keys whose
// spans follow the two-random-keys distribution: mean span N/3.
func TestPaperRanges(t *testing.T) {
	keys := seq(10000)
	rs := paperRanges(rand.New(rand.NewSource(3)), keys, 1<<14)
	sum := 0.0
	for _, r := range rs {
		if !(r[0] < r[1]) || r[0] < 1 || r[1] > 10000 {
			t.Fatalf("bad range %v", r)
		}
		sum += r[1] - r[0]
	}
	if mean := sum / float64(len(rs)); math.Abs(mean-10000.0/3) > 50 {
		t.Errorf("mean span %g, want about %g", mean, 10000.0/3)
	}
}
