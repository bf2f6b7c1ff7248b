package core

import (
	"fmt"
	"math"

	"repro/internal/artree"
	"repro/internal/data"
	"repro/internal/quadtree"
)

// Options2D configures a two-key COUNT index build (Section VI).
type Options2D struct {
	// Degree of the fitted surfaces P(u,v) = Σ_{i+j≤deg} a_ij u^i v^j
	// (default 2, matching PolyFit-2 in §VII).
	Degree int
	// Delta is the per-leaf bounded error δ. For an absolute guarantee
	// εabs use δ = εabs/4 (Lemma 6).
	Delta float64
	// GridSize / MaxDataSamples / SplitThreshold / MaxDepth tune the
	// quadtree segmentation; zero values take quadtree defaults.
	GridSize       int
	MaxDataSamples int
	SplitThreshold int
	MaxDepth       int
	// NoFallback skips the exact aR-tree used by relative-error queries.
	NoFallback bool
	// Parallelism is the number of goroutines used for the per-cell surface
	// fits during construction; values ≤ 1 build serially. The built tree is
	// identical for every worker count.
	Parallelism int
}

// Delta2DForAbs returns the build δ guaranteeing εabs for two-key COUNT
// (Lemma 6).
func Delta2DForAbs(epsAbs float64) float64 { return epsAbs / 4 }

// Index2D is a PolyFit index over two keys answering approximate range
// COUNT (or weighted SUM) queries via four cumulative-surface evaluations.
type Index2D struct {
	tree  *quadtree.Tree
	delta float64
	n     int
	total float64       // CF(+∞,+∞): n for COUNT, Σw for SUM
	exact *artree.RTree // Problem-2 fallback (nil with NoFallback)
}

// BuildCount2D constructs the two-key COUNT index: it precomputes the
// cumulative surface CFcount (Definition 5) with a plane-sweep dominance
// counter and segments the domain with the Figure 13 quadtree.
func BuildCount2D(xs, ys []float64, opt Options2D) (*Index2D, error) {
	return buildWeighted2D(xs, ys, nil, opt)
}

// BuildSum2D constructs the two-key SUM index over weighted points — the
// "other types of range aggregate queries" extension Section VI mentions.
// The cumulative surface Σ{w_i : x_i ≤ u, y_i ≤ v} replaces CFcount;
// everything else (quadtree, four-corner identity, Lemmas 6/7) is shared.
// Weights must be non-negative for the relative-error guarantee.
func BuildSum2D(xs, ys, ws []float64, opt Options2D) (*Index2D, error) {
	if len(ws) != len(xs) {
		return nil, fmt.Errorf("%w: %d xs, %d weights", ErrLengthMismatch, len(xs), len(ws))
	}
	return buildWeighted2D(xs, ys, ws, opt)
}

func buildWeighted2D(xs, ys, ws []float64, opt Options2D) (*Index2D, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("core: %d xs, %d ys: %w", len(xs), len(ys), ErrEmptyDataset)
	}
	if opt.Degree == 0 {
		opt.Degree = 2
	}
	dc := data.NewWeightedDominanceCounter(xs, ys, ws)
	tree, err := quadtree.Build(xs, ys, dc.Count, quadtree.Config{
		Degree:         opt.Degree,
		Delta:          opt.Delta,
		GridSize:       opt.GridSize,
		MaxDataSamples: opt.MaxDataSamples,
		SplitThreshold: opt.SplitThreshold,
		MaxDepth:       opt.MaxDepth,
		Parallelism:    opt.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	total := 0.0
	if ws == nil {
		total = float64(len(xs))
	} else {
		for _, w := range ws {
			total += w
		}
	}
	ix := &Index2D{tree: tree, delta: opt.Delta, n: len(xs), total: total}
	if !opt.NoFallback {
		rt, err := artree.NewRTreeWeighted(xs, ys, ws, 0, 0)
		if err != nil {
			return nil, err
		}
		ix.exact = rt
	}
	return ix, nil
}

// CF evaluates the approximate two-key cumulative function, clamped into
// [0, total] (the exact surface is a non-negative aggregate, so clamping
// only reduces error).
func (ix *Index2D) CF(u, v float64) float64 {
	val := ix.tree.EvalCF(u, v)
	if val < 0 {
		return 0
	}
	if val > ix.total {
		return ix.total
	}
	return val
}

// RangeCount answers the approximate two-key COUNT over the half-open
// rectangle (xlo, xhi] × (ylo, yhi] via the four-corner identity of
// Section VI. Built with δ = εabs/4, |A − R| ≤ εabs (Lemma 6).
func (ix *Index2D) RangeCount(xlo, xhi, ylo, yhi float64) float64 {
	if xhi < xlo || yhi < ylo {
		return 0
	}
	a := ix.CF(xhi, yhi) - ix.CF(xlo, yhi) - ix.CF(xhi, ylo) + ix.CF(xlo, ylo)
	if a < 0 {
		return 0
	}
	if a > ix.total {
		return ix.total
	}
	return a
}

// Query answers the approximate COUNT/SUM over the half-open rectangle
// (xlo, xhi] × (ylo, yhi] with its Lemma 6 bound: 4δ, since the
// four-corner identity evaluates the fitted surface four times, each within
// δ. An inverted rectangle is empty, so its answer is exactly 0. NaN
// coordinates fail with ErrInvalidRange.
func (ix *Index2D) Query(xlo, xhi, ylo, yhi float64) (Result, error) {
	if math.IsNaN(xlo) || math.IsNaN(xhi) || math.IsNaN(ylo) || math.IsNaN(yhi) {
		return Result{}, fmt.Errorf("%w: NaN rectangle coordinate (%g, %g, %g, %g)", ErrInvalidRange, xlo, xhi, ylo, yhi)
	}
	if xhi < xlo || yhi < ylo {
		return Result{Found: true, Bound: 0}, nil
	}
	return Result{Value: ix.RangeCount(xlo, xhi, ylo, yhi), Found: true, Bound: 4 * ix.delta}, nil
}

// QueryRel answers within the relative error epsRel: Query's answer when
// the εrel gate certifies it (Lemma 7, Result.certifies), else the exact
// aR-tree (Result.Exact, Bound 0).
func (ix *Index2D) QueryRel(xlo, xhi, ylo, yhi, epsRel float64) (Result, error) {
	return answerRel(epsRel,
		func() (Result, error) { return ix.Query(xlo, xhi, ylo, yhi) },
		func() (Result, error) {
			if ix.exact == nil {
				return Result{}, ErrNoFallback
			}
			return Result{Value: ix.exactRange(xlo, xhi, ylo, yhi), Exact: true, Found: true, Bound: 0}, nil
		})
}

// RangeCountRel is QueryRel in the tuple form the experiments time.
func (ix *Index2D) RangeCountRel(xlo, xhi, ylo, yhi, epsRel float64) (val float64, usedExact bool, err error) {
	res, err := ix.QueryRel(xlo, xhi, ylo, yhi, epsRel)
	return res.Value, res.Exact, err
}

// exactRange runs the exact weighted aR-tree aggregate with half-open
// semantics (works for both COUNT and SUM indexes).
func (ix *Index2D) exactRange(xlo, xhi, ylo, yhi float64) float64 {
	if xhi < xlo || yhi < ylo {
		return 0
	}
	return ix.exact.SumRect(artree.Rect{
		XLo: math.Nextafter(xlo, math.Inf(1)), XHi: xhi,
		YLo: math.Nextafter(ylo, math.Inf(1)), YHi: yhi,
	})
}

// ExactRangeCount runs the exact aR-tree count with the same half-open
// semantics as RangeCount. With NoFallback it returns -1.
func (ix *Index2D) ExactRangeCount(xlo, xhi, ylo, yhi float64) int {
	if ix.exact == nil {
		return -1
	}
	if xhi < xlo || yhi < ylo {
		return 0
	}
	q := artree.Rect{
		XLo: math.Nextafter(xlo, math.Inf(1)), XHi: xhi,
		YLo: math.Nextafter(ylo, math.Inf(1)), YHi: yhi,
	}
	return ix.exact.CountRect(q)
}

// Len returns the number of indexed points.
func (ix *Index2D) Len() int { return ix.n }

// Delta returns the build δ.
func (ix *Index2D) Delta() float64 { return ix.delta }

// NumLeaves returns the number of fitted surfaces (quadtree leaves).
func (ix *Index2D) NumLeaves() int { return ix.tree.NumLeaves }

// Depth returns the quadtree depth.
func (ix *Index2D) Depth() int { return ix.tree.Depth }

// ForcedLeaves reports leaves that could not reach δ before MaxDepth
// (0 in healthy builds).
func (ix *Index2D) ForcedLeaves() int { return ix.tree.ForcedLeaves }

// Bounds returns the indexed domain rectangle.
func (ix *Index2D) Bounds() (xlo, xhi, ylo, yhi float64) { return ix.tree.Bounds() }

// SizeBytes reports the PolyFit structure footprint (quadtree + surfaces);
// the exact fallback is reported by FallbackSizeBytes.
func (ix *Index2D) SizeBytes() int { return ix.tree.SizeBytes() }

// FallbackSizeBytes reports the aR-tree footprint, if built.
func (ix *Index2D) FallbackSizeBytes() int {
	if ix.exact == nil {
		return 0
	}
	return ix.exact.SizeBytes()
}
