package main

import (
	"math"
	"sort"
)

// The referee computes exact answers from the raw data. It shares no code
// with the index it checks: COUNT is a difference of prefix counts over the
// sorted keys, MAX a sparse table over fixed-size blocks.

// countRef answers exact COUNT over the half-open range (lo, hi].
type countRef struct{ keys []float64 } // sorted ascending

// prefix returns the number of keys ≤ x.
func (c countRef) prefix(x float64) int {
	return sort.Search(len(c.keys), func(i int) bool { return c.keys[i] > x })
}

func (c countRef) count(lo, hi float64) float64 {
	if hi < lo {
		return 0
	}
	return float64(c.prefix(hi) - c.prefix(lo))
}

// maxBlock is the block size of maxRef: queries scan at most two partial
// blocks and answer the whole blocks between them from the sparse table.
const maxBlock = 64

// maxRef answers exact MAX over the closed range [lo, hi].
type maxRef struct {
	keys, vals []float64
	table      [][]float64 // table[j][b] = max of blocks b .. b+2^j-1
}

func newMaxRef(keys, vals []float64) *maxRef {
	nb := (len(vals) + maxBlock - 1) / maxBlock
	level := make([]float64, nb)
	for b := range level {
		m := math.Inf(-1)
		for _, v := range vals[b*maxBlock : min((b+1)*maxBlock, len(vals))] {
			m = math.Max(m, v)
		}
		level[b] = m
	}
	m := &maxRef{keys: keys, vals: vals, table: [][]float64{level}}
	for w := 2; w <= nb; w *= 2 {
		prev := m.table[len(m.table)-1]
		next := make([]float64, nb-w+1)
		for b := range next {
			next[b] = math.Max(prev[b], prev[b+w/2])
		}
		m.table = append(m.table, next)
	}
	return m
}

// blocks returns the max over whole blocks a..b (inclusive, a ≤ b).
func (m *maxRef) blocks(a, b int) float64 {
	j := 0
	for 1<<(j+1) <= b-a+1 {
		j++
	}
	return math.Max(m.table[j][a], m.table[j][b-(1<<j)+1])
}

func (m *maxRef) scan(i, j int) float64 {
	v := math.Inf(-1)
	for _, x := range m.vals[i : j+1] {
		v = math.Max(v, x)
	}
	return v
}

// max returns the largest measure with key in [lo, hi], and false when the
// range holds no key.
func (m *maxRef) max(lo, hi float64) (float64, bool) {
	i := sort.SearchFloat64s(m.keys, lo)
	j := sort.Search(len(m.keys), func(k int) bool { return m.keys[k] > hi }) - 1
	if i > j {
		return 0, false
	}
	bi, bj := i/maxBlock, j/maxBlock
	if bi == bj {
		return m.scan(i, j), true
	}
	v := math.Max(m.scan(i, (bi+1)*maxBlock-1), m.scan(bj*maxBlock, j))
	if bi+1 <= bj-1 {
		v = math.Max(v, m.blocks(bi+1, bj-1))
	}
	return v, true
}

// fenwick counts marked positions; it brackets ingest reads by the records
// sent so far.
type fenwick []int32

func (f fenwick) add(i int) {
	for i++; i < len(f); i += i & -i {
		f[i]++
	}
}

// sum returns the number of marked positions < n.
func (f fenwick) sum(n int) int {
	s := 0
	for ; n > 0; n -= n & -n {
		s += int(f[n])
	}
	return s
}

// within reports whether got lies within bound of some value in [lo, hi],
// with a relative slack of 1e-9 for float rounding in the served answer.
func within(got, lo, hi, bound float64) bool {
	slack := bound + 1e-9*math.Max(math.Abs(lo), math.Abs(hi))
	return got >= lo-slack && got <= hi+slack
}

// relErr is the paper's accuracy measure for one answer.
func relErr(got, exact float64) float64 {
	return math.Abs(got-exact) / math.Max(math.Abs(exact), 1)
}
