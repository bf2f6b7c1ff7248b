package main

import (
	"math"
	"sort"
)

// minBeyond is the reporting rule for percentiles: a percentile is reported
// only when at least this many samples lie beyond it.
const minBeyond = 10

// pctl is one reported percentile: the nearest-rank value, the quantile it
// actually stands for, and the sample count behind it.
type pctl struct {
	Value float64 `json:"value"`
	Q     float64 `json:"q"`
	N     int     `json:"n"`
}

// nearestRank returns the nearest-rank q-quantile of sorted and whether at
// least minBeyond samples lie beyond it.
func nearestRank(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	r := int(math.Ceil(q * float64(n)))
	r = max(1, min(r, n))
	return sorted[r-1], n-r >= minBeyond
}

// dist collects samples of one quantity.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) { d.xs = append(d.xs, x); d.sorted = false }

func (d *dist) sort() []float64 {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	return d.xs
}

// at reports the q-quantile under the reporting rule. When q has fewer than
// minBeyond samples beyond it, the highest quantile that has them is
// reported instead, so Q says which percentile the value is; with too few
// samples for any, the value is 0 and Q is 0.
func (d *dist) at(q float64) pctl {
	xs := d.sort()
	n := len(xs)
	if v, ok := nearestRank(xs, q); ok {
		return pctl{Value: finite(v), Q: q, N: n}
	}
	if r := n - minBeyond; r >= 1 {
		return pctl{Value: finite(xs[r-1]), Q: float64(r) / float64(n), N: n}
	}
	return pctl{N: n}
}

// median is the nearest-rank median without the reporting rule, for
// events too rare to meet it (merge-rebuilds, snapshots); callers print
// the sample count beside it.
func (d *dist) median() float64 {
	v, _ := nearestRank(d.sort(), 0.5)
	return v
}

func (d *dist) mean() float64 {
	if len(d.xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.xs {
		s += x
	}
	return s / float64(len(d.xs))
}

// finite maps a failed operation's +Inf latency to a very large finite
// value, so the printed JSON stays valid while the figure still misses
// every limit.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 1e12
	}
	return x
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
