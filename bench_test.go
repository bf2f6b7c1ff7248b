// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation (the per-experiment index in DESIGN.md §2 maps ids to these).
// Each benchmark measures the figure's headline operation at a fixed,
// representative parameter point; the full parameter sweeps live in
// cmd/polyfit-experiments.
package polyfit_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	polyfit "repro"
	"repro/internal/artree"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/fitingtree"
	"repro/internal/hist"
	"repro/internal/minimax"
	"repro/internal/nn"
	"repro/internal/rmi"
	"repro/internal/sampling"
	"repro/internal/segment"
)

const (
	benchTweetN = 100_000
	benchHKIN   = 100_000
	benchOSMN   = 60_000
)

var fixtures struct {
	once      sync.Once
	tweetKeys []float64
	hkiKeys   []float64
	hkiVals   []float64
	osmXs     []float64
	osmYs     []float64
	qs1D      []data.RangeQuery
	qsHKI     []data.RangeQuery
	qsRect    []data.RectQuery
}

func fx() *struct {
	once      sync.Once
	tweetKeys []float64
	hkiKeys   []float64
	hkiVals   []float64
	osmXs     []float64
	osmYs     []float64
	qs1D      []data.RangeQuery
	qsHKI     []data.RangeQuery
	qsRect    []data.RectQuery
} {
	fixtures.once.Do(func() {
		fixtures.tweetKeys = data.GenTweet(benchTweetN, 1)
		fixtures.hkiKeys, fixtures.hkiVals = data.GenHKI(benchHKIN, 2)
		fixtures.osmXs, fixtures.osmYs = data.GenOSM(benchOSMN, 3)
		fixtures.qs1D = data.RangeQueriesFromKeys(fixtures.tweetKeys, 1024, 4)
		fixtures.qsHKI = data.RangeQueriesFromKeys(fixtures.hkiKeys, 1024, 5)
		fixtures.qsRect = data.UniformRects(-180, 180, -90, 90, 1024, 6)
	})
	return &fixtures
}

// --- Figure 5 ---------------------------------------------------------------

func BenchmarkFig5Fitting(b *testing.B) {
	f := fx()
	stride := len(f.hkiKeys) / 90
	var xs, ys []float64
	for i := 0; i < len(f.hkiKeys) && len(xs) < 90; i += stride {
		xs = append(xs, f.hkiKeys[i])
		ys = append(ys, f.hkiVals[i])
	}
	b.Run("deg1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := minimax.FitPoly(xs, ys, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deg4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := minimax.FitPoly(xs, ys, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 14: degree sweeps ------------------------------------------------

func BenchmarkFig14aDegree(b *testing.B) {
	f := fx()
	for _, deg := range []int{1, 2, 3} {
		ix, err := core.BuildCount(f.tweetKeys, core.Options{Degree: deg, Delta: 50, NoFallback: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{1: "PolyFit-1", 2: "PolyFit-2", 3: "PolyFit-3"}[deg], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := f.qs1D[i&1023]
				ix.RangeSum(q.L, q.U) //nolint:errcheck
			}
		})
	}
}

func BenchmarkFig14bDegreeMax(b *testing.B) {
	f := fx()
	for _, deg := range []int{1, 2} {
		ix, err := core.BuildMax(f.hkiKeys, f.hkiVals, core.Options{Degree: deg, Delta: 100, NoFallback: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{1: "PolyFit-1", 2: "PolyFit-2"}[deg], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := f.qsHKI[i&1023]
				ix.RangeExtremum(q.L, q.U) //nolint:errcheck
			}
		})
	}
}

func BenchmarkFig14cConstruction(b *testing.B) {
	keys := data.GenTweet(20_000, 7)
	for deg, name := range map[int]string{1: "PolyFit-1", 2: "PolyFit-2", 3: "PolyFit-3"} {
		deg := deg
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildCount(keys, core.Options{Degree: deg, Delta: 50, NoFallback: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table V ------------------------------------------------------------------

func BenchmarkTable5_Count1Key(b *testing.B) {
	f := fx()
	s2, _ := sampling.NewS2(f.tweetKeys, 0.9, 8)
	rmiIx, err := rmi.BuildCountWithGuarantee(f.tweetKeys, 50, 1<<18, true)
	if err != nil {
		b.Fatal(err)
	}
	fit, _ := fitingtree.BuildCount(f.tweetKeys, 50, true)
	pf, _ := core.BuildCount(f.tweetKeys, core.Options{Degree: 2, Delta: 50})
	b.Run("S2_abs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			s2.CountAbs(q.L, q.U, 100)
		}
	})
	b.Run("RMI_abs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			rmiIx.RangeSum(q.L, q.U)
		}
	})
	b.Run("FITingTree_abs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			fit.RangeSum(q.L, q.U)
		}
	})
	b.Run("PolyFit_abs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			pf.RangeSum(q.L, q.U) //nolint:errcheck
		}
	})
	b.Run("RMI_rel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			rmiIx.RangeSumRel(q.L, q.U, 0.01) //nolint:errcheck
		}
	})
	b.Run("FITingTree_rel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			fit.RangeSumRel(q.L, q.U, 0.01) //nolint:errcheck
		}
	})
	b.Run("PolyFit_rel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			pf.RangeSumRel(q.L, q.U, 0.01) //nolint:errcheck
		}
	})
}

func BenchmarkTable5_Max1Key(b *testing.B) {
	f := fx()
	tree, _ := artree.NewMaxTree(f.hkiKeys, f.hkiVals, artree.Max)
	pfAbs, _ := core.BuildMax(f.hkiKeys, f.hkiVals, core.Options{Degree: 2, Delta: 100, NoFallback: true})
	pfRel, _ := core.BuildMax(f.hkiKeys, f.hkiVals, core.Options{Degree: 2, Delta: 50})
	b.Run("aRtree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qsHKI[i&1023]
			tree.Query(q.L, q.U)
		}
	})
	b.Run("PolyFit_abs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qsHKI[i&1023]
			pfAbs.RangeExtremum(q.L, q.U) //nolint:errcheck
		}
	})
	b.Run("PolyFit_rel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qsHKI[i&1023]
			pfRel.RangeExtremumRel(q.L, q.U, 0.01) //nolint:errcheck
		}
	})
}

func BenchmarkTable5_Count2Keys(b *testing.B) {
	f := fx()
	rt, _ := artree.NewRTree(f.osmXs, f.osmYs, 0, 0)
	pfAbs, err := core.BuildCount2D(f.osmXs, f.osmYs, core.Options2D{Degree: 2, Delta: 250, NoFallback: true})
	if err != nil {
		b.Fatal(err)
	}
	pfRel, err := core.BuildCount2D(f.osmXs, f.osmYs, core.Options2D{Degree: 2, Delta: 250})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("aRtree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qsRect[i&1023]
			rt.CountRect(artree.Rect{
				XLo: math.Nextafter(q.XLo, math.Inf(1)), XHi: q.XHi,
				YLo: math.Nextafter(q.YLo, math.Inf(1)), YHi: q.YHi,
			})
		}
	})
	b.Run("PolyFit_abs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qsRect[i&1023]
			pfAbs.RangeCount(q.XLo, q.XHi, q.YLo, q.YHi)
		}
	})
	b.Run("PolyFit_rel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qsRect[i&1023]
			pfRel.RangeCountRel(q.XLo, q.XHi, q.YLo, q.YHi, 0.01) //nolint:errcheck
		}
	})
}

// --- Figures 15–18: method comparisons ----------------------------------------

func BenchmarkFig15aCountAbs(b *testing.B) {
	f := fx()
	rmiIx, err := rmi.BuildCountWithGuarantee(f.tweetKeys, 50, 1<<18, false)
	if err != nil {
		b.Fatal(err)
	}
	fit, _ := fitingtree.BuildCount(f.tweetKeys, 50, false)
	pf, _ := core.BuildCount(f.tweetKeys, core.Options{Degree: 2, Delta: 50, NoFallback: true})
	b.Run("RMI", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			rmiIx.RangeSum(q.L, q.U)
		}
	})
	b.Run("FITingTree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			fit.RangeSum(q.L, q.U)
		}
	})
	b.Run("PolyFit2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			pf.RangeSum(q.L, q.U) //nolint:errcheck
		}
	})
}

func BenchmarkFig15bCount2DAbs(b *testing.B) {
	f := fx()
	rt, _ := artree.NewRTree(f.osmXs, f.osmYs, 0, 0)
	pf, err := core.BuildCount2D(f.osmXs, f.osmYs, core.Options2D{Degree: 2, Delta: 250, NoFallback: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("aRtree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qsRect[i&1023]
			rt.CountRect(artree.Rect{XLo: q.XLo, XHi: q.XHi, YLo: q.YLo, YHi: q.YHi})
		}
	})
	b.Run("PolyFit2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qsRect[i&1023]
			pf.RangeCount(q.XLo, q.XHi, q.YLo, q.YHi)
		}
	})
}

func BenchmarkFig16aCountRel(b *testing.B) {
	f := fx()
	rmiIx, err := rmi.BuildCountWithGuarantee(f.tweetKeys, 50, 1<<18, true)
	if err != nil {
		b.Fatal(err)
	}
	fit, _ := fitingtree.BuildCount(f.tweetKeys, 50, true)
	pf, _ := core.BuildCount(f.tweetKeys, core.Options{Degree: 2, Delta: 50})
	for _, m := range []struct {
		name string
		op   func(l, u float64)
	}{
		{"RMI", func(l, u float64) { rmiIx.RangeSumRel(l, u, 0.01) }},      //nolint:errcheck
		{"FITingTree", func(l, u float64) { fit.RangeSumRel(l, u, 0.01) }}, //nolint:errcheck
		{"PolyFit2", func(l, u float64) { pf.RangeSumRel(l, u, 0.01) }},    //nolint:errcheck
	} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := f.qs1D[i&1023]
				m.op(q.L, q.U)
			}
		})
	}
}

func BenchmarkFig16bCount2DRel(b *testing.B) {
	b.ReportAllocs()
	f := fx()
	pf, err := core.BuildCount2D(f.osmXs, f.osmYs, core.Options2D{Degree: 2, Delta: 250})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer() // exclude the one-time build from ns/op and allocs/op
	for i := 0; i < b.N; i++ {
		q := f.qsRect[i&1023]
		pf.RangeCountRel(q.XLo, q.XHi, q.YLo, q.YHi, 0.01) //nolint:errcheck
	}
}

func BenchmarkFig17aMaxAbs(b *testing.B) {
	b.ReportAllocs()
	f := fx()
	pf, _ := core.BuildMax(f.hkiKeys, f.hkiVals, core.Options{Degree: 2, Delta: 100, NoFallback: true})
	b.ResetTimer() // exclude the one-time build from ns/op and allocs/op
	for i := 0; i < b.N; i++ {
		q := f.qsHKI[i&1023]
		pf.RangeExtremum(q.L, q.U) //nolint:errcheck
	}
}

func BenchmarkFig17bMaxRel(b *testing.B) {
	b.ReportAllocs()
	f := fx()
	pf, _ := core.BuildMax(f.hkiKeys, f.hkiVals, core.Options{Degree: 2, Delta: 50})
	b.ResetTimer() // exclude the one-time build from ns/op and allocs/op
	for i := 0; i < b.N; i++ {
		q := f.qsHKI[i&1023]
		pf.RangeExtremumRel(q.L, q.U, 0.01) //nolint:errcheck
	}
}

func BenchmarkFig18Scalability(b *testing.B) {
	for _, n := range []int{25_000, 100_000, 400_000} {
		keys := data.GenOSMLatKeys(n, 9)
		qs := data.RangeQueriesFromKeys(keys, 1024, 10)
		pf, err := core.BuildCount(keys, core.Options{Degree: 2, Delta: 50})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{25_000: "n25k", 100_000: "n100k", 400_000: "n400k"}[n], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i&1023]
				pf.RangeSumRel(q.L, q.U, 0.01) //nolint:errcheck
			}
		})
	}
}

// --- Figure 19: index size (reported as metrics, not time) --------------------

func BenchmarkFig19IndexSize(b *testing.B) {
	f := fx()
	for i := 0; i < b.N; i++ {
		pf, err := core.BuildCount(f.tweetKeys, core.Options{Degree: 2, Delta: 50, NoFallback: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fit, _ := fitingtree.BuildCount(f.tweetKeys, 50, false)
			rmiIx, _ := rmi.BuildCountWithGuarantee(f.tweetKeys, 50, 1<<18, false)
			b.ReportMetric(float64(pf.SizeBytes())/1024, "polyfit-KB")
			b.ReportMetric(float64(fit.SizeBytes())/1024, "fitingtree-KB")
			b.ReportMetric(float64(rmiIx.SizeBytes())/1024, "rmi-KB")
		}
	}
}

// --- Figure 20: heuristics -----------------------------------------------------

func BenchmarkFig20Heuristics(b *testing.B) {
	f := fx()
	h, _ := hist.New(f.tweetKeys, 1024)
	st, _ := sampling.NewSTree(f.tweetKeys, len(f.tweetKeys)/10, 11)
	pf, _ := core.BuildCount(f.tweetKeys, core.Options{Degree: 2, Delta: 50, NoFallback: true})
	b.Run("Hist1024", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			h.EstimateCount(q.L, q.U)
		}
	})
	b.Run("STree10pct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			st.EstimateCount(q.L, q.U)
		}
	})
	b.Run("PolyFit2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.qs1D[i&1023]
			pf.RangeSum(q.L, q.U) //nolint:errcheck
		}
	})
}

// --- Table VI: model prediction latency -----------------------------------------

func BenchmarkTable6Models(b *testing.B) {
	f := fx()
	xs := make([]float64, 0, 2000)
	ys := make([]float64, 0, 2000)
	stride := len(f.tweetKeys) / 2000
	for i := 0; i < len(f.tweetKeys); i += stride {
		xs = append(xs, f.tweetKeys[i])
		ys = append(ys, float64(i+1))
	}
	lr, _ := rmi.BuildCount(f.tweetKeys, []int{1}, false)
	b.Run("LR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lr.CF(f.tweetKeys[i%len(f.tweetKeys)])
		}
	})
	for _, arch := range [][]int{{1, 8, 1}, {1, 8, 8, 1}, {1, 16, 16, 1}} {
		m, _ := nn.New(arch, 12)
		_ = m.Fit(xs, ys, nn.Config{Epochs: 10, Seed: 12})
		pred := m.Predictor()
		b.Run("NN"+m.Arch(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pred(f.tweetKeys[i%len(f.tweetKeys)])
			}
		})
	}
}

// --- Ablations -------------------------------------------------------------------

func BenchmarkAblationSegmentation(b *testing.B) {
	keys := data.GenTweet(20_000, 13)
	cf := make([]float64, len(keys))
	for i := range cf {
		cf[i] = float64(i + 1)
	}
	for _, v := range []struct {
		name string
		cfg  segment.Config
	}{
		{"ExpSearchExchange", segment.Config{Degree: 2, Delta: 50}},
		{"LinearScan", segment.Config{Degree: 2, Delta: 50, NoExpSearch: true}},
		{"ExpSearchDualLP", segment.Config{Degree: 2, Delta: 50, Backend: segment.DualLP}},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := segment.Greedy(keys, cf, v.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationMaxBoundaryWork(b *testing.B) {
	// Isolates the cost of the two boundary-segment polynomial
	// maximisations vs the O(1) RMQ middle (whole-domain queries hit only
	// the RMQ; narrow queries hit only the boundary path).
	f := fx()
	pf, _ := core.BuildMax(f.hkiKeys, f.hkiVals, core.Options{Degree: 2, Delta: 100, NoFallback: true})
	lo, hi := f.hkiKeys[0], f.hkiKeys[len(f.hkiKeys)-1]
	b.Run("WholeDomainRMQ", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pf.RangeExtremum(lo, hi) //nolint:errcheck
		}
	})
	b.Run("NarrowBoundary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := f.hkiKeys[i%(len(f.hkiKeys)-100)]
			pf.RangeExtremum(q, q+50) //nolint:errcheck
		}
	})
}

// --- Serving layer: batched queries and concurrent throughput -----------------

// BenchmarkQueryBatchVsSerial compares answering 1024 COUNT ranges one by
// one against the QueryBatch hot path, for a random batch (the adaptive
// gate falls back to direct evaluation — parity with serial, no sort tax)
// and a sorted sliding-window batch (the forward-only cursor replaces
// every binary search).
func BenchmarkQueryBatchVsSerial(b *testing.B) {
	f := fx()
	random := make([]core.Range, len(f.qs1D))
	for i, q := range f.qs1D {
		random[i] = core.Range{Lo: q.L, Hi: q.U}
	}
	lo, hi := f.tweetKeys[0], f.tweetKeys[len(f.tweetKeys)-1]
	sorted := make([]core.Range, 1024)
	for i := range sorted {
		a := lo + float64(i)*(hi-lo)/1024
		sorted[i] = core.Range{Lo: a, Hi: a + (hi-lo)/1200}
	}
	// Coarse: the paper's δ=50 point, 24 segments — everything cache-hot.
	// Fine: δ=0.5, ~15k segments — per-query binary searches cache-miss.
	for _, cfg := range []struct {
		name  string
		delta float64
	}{{"Coarse", 50}, {"Fine", 0.5}} {
		pf, err := core.BuildCount(f.tweetKeys, core.Options{Degree: 2, Delta: cfg.delta, NoFallback: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []struct {
			name   string
			ranges []core.Range
		}{{"Random", random}, {"SortedWindows", sorted}} {
			b.Run(cfg.name+"/"+w.name+"/Serial", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, r := range w.ranges {
						pf.RangeSum(r.Lo, r.Hi) //nolint:errcheck
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.ranges)), "ns/query")
			})
			b.Run(cfg.name+"/"+w.name+"/Batched", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pf.QueryBatch(w.ranges); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(w.ranges)), "ns/query")
			})
		}
	}
}

// BenchmarkQueryBatchVsSerialMax is the MIN/MAX variant: the batch path
// replaces the two per-query binary searches with a monotone cursor plus a
// short gallop.
func BenchmarkQueryBatchVsSerialMax(b *testing.B) {
	f := fx()
	pf, err := core.BuildMax(f.hkiKeys, f.hkiVals, core.Options{Degree: 2, Delta: 100, NoFallback: true})
	if err != nil {
		b.Fatal(err)
	}
	ranges := make([]core.Range, len(f.qsHKI))
	for i, q := range f.qsHKI {
		ranges[i] = core.Range{Lo: q.L, Hi: q.U}
	}
	b.Run("Serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range ranges {
				pf.RangeExtremum(r.Lo, r.Hi) //nolint:errcheck
			}
		}
	})
	b.Run("Batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pf.QueryBatch(ranges); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDynamicConcurrentThroughput measures query throughput on a
// dynamic index while a background writer streams inserts (triggering
// periodic merge-rebuilds). Queries are lock-free snapshot reads, so
// GOMAXPROCS-many readers scale without contending with the writer.
func BenchmarkDynamicConcurrentThroughput(b *testing.B) {
	f := fx()
	for _, writers := range []int{0, 1} {
		name := map[int]string{0: "ReadOnly", 1: "WithInserts"}[writers]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: f.tweetKeys},
				polyfit.WithMaxError(100), polyfit.WithFallback(false), polyfit.WithDynamic())
			if err != nil {
				b.Fatal(err)
			}
			d := ix.(polyfit.Inserter)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
							d.Insert(rng.Float64()*4e8, 1) //nolint:errcheck
						}
					}
				}(int64(41 + w))
			}
			var qi atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := f.qs1D[int(qi.Add(1))&1023]
					if _, err := ix.Query(polyfit.Range{Lo: q.L, Hi: q.U}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkDynamicInsert measures applying records to a dynamic COUNT
// index whose buffer holds 100k–150k records over a 400k-key base (below
// the n/2 merge-rebuild threshold, so no re-fit is timed): one Insert per
// record, and 64-record InsertBatch calls. ns/op is per record; every 50k
// records the index is restored from a blob with the original 100k-record
// buffer, outside the timer.
func BenchmarkDynamicInsert(b *testing.B) {
	const baseN, buffered, window = 400_000, 100_000, 50_000
	base := make([]float64, baseN)
	for i := range base {
		base[i] = float64(2 * i)
	}
	fresh := rand.New(rand.NewSource(43)).Perm(baseN) // odd keys 2i+1
	key := func(i int) float64 { return float64(2*fresh[i] + 1) }
	d, err := core.NewDynamic(core.Count, base, make([]float64, baseN), core.Options{Delta: 50, NoFallback: true})
	if err != nil {
		b.Fatal(err)
	}
	prefill := make([]float64, buffered)
	for i := range prefill {
		prefill[i] = key(i)
	}
	d.InsertBatch(prefill, nil)
	blob, err := d.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var d *core.Dynamic1D
			next := buffered + window // restore before the first record
			keys := make([]float64, batch)
			b.ResetTimer()
			for done := 0; done < b.N; done += batch {
				if next+batch > buffered+window {
					b.StopTimer()
					if d, err = core.RestoreDynamic(blob); err != nil {
						b.Fatal(err)
					}
					next = buffered
					b.StartTimer()
				}
				for j := range keys {
					keys[j] = key(next + j)
				}
				next += batch
				if batch == 1 {
					d.Insert(keys[0], 1) //nolint:errcheck // fresh keys: cannot fail
				} else {
					d.InsertBatch(keys, nil)
				}
			}
		})
	}
}

// --- PR 2: construction and locate hot paths -----------------------------------

// BenchmarkLocate isolates the per-query segment-location primitive: the
// learned root (an O(1) interpolation table over the segment boundaries)
// versus the binary search it replaced, on a coarse (cache-resident) and a
// fine (cache-hostile) index.
func BenchmarkLocate(b *testing.B) {
	f := fx()
	for _, cfg := range []struct {
		name  string
		delta float64
	}{{"Coarse", 50}, {"Fine", 0.5}} {
		pf, err := core.BuildCount(f.tweetKeys, core.Options{Degree: 2, Delta: cfg.delta, NoFallback: true})
		if err != nil {
			b.Fatal(err)
		}
		probes := make([]float64, 1024)
		for i, q := range f.qs1D {
			probes[i&1023] = q.U
		}
		b.Run(cfg.name+"/Root", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pf.Locate(probes[i&1023])
			}
		})
		b.Run(cfg.name+"/Binary", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pf.LocateBinary(probes[i&1023])
			}
		})
	}
}

// BenchmarkParallelBuild measures greedy-segmentation construction at
// 1/2/4/8 workers, on the Fig. 14c dataset (20k keys, δ=50) and on the
// fine-index configuration where construction cost actually dominates
// (200k keys, δ=0.5, ~30k segments). The built index is byte-identical
// across worker counts (tested in internal/segment and internal/core); only
// the wall clock changes. Fine indexes resynchronise at chunk junctions
// within a few segments, so they scale near-linearly with cores; ultra-
// coarse smooth indexes (tens of segments) may never resynchronise, so the
// first-segment probe in segment.Greedy keeps them serial (the Fig14c rows
// measure that bail-out).
func BenchmarkParallelBuild(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		n     int
		delta float64
	}{
		{"Fig14c_n20k_d50", 20_000, 50},
		{"Fine_n200k_d0.5", 200_000, 0.5},
	} {
		keys := data.GenTweet(cfg.n, 7)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers%d", cfg.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.BuildCount(keys, core.Options{
						Degree: 2, Delta: cfg.delta, NoFallback: true, Parallelism: workers,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
