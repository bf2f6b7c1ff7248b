package polyfit

import (
	"repro/internal/core"
)

// Index2D is a PolyFit index over two keys (Section VI of the paper),
// answering approximate rectangle COUNT (or weighted SUM) queries from a
// quadtree of fitted cumulative surfaces. Its query contract mirrors the
// one-key Index interface — Query and QueryRel return the uniform Result
// with the certified absolute bound (4δ per Lemma 6, 0 on the exact path
// and for empty rectangles) — adapted to rectangle arguments.
type Index2D struct {
	inner *core.Index2D
}

// Options2D configures a two-key index build.
type Options2D struct {
	// EpsAbs is the absolute guarantee; the build uses δ = εabs/4 (Lemma 6).
	EpsAbs float64
	// Delta overrides δ directly (the paper uses δ=250 for Problem 2).
	Delta float64
	// Degree of the fitted surfaces (default 2).
	Degree int
	// DisableFallback skips the exact aR-tree used by QueryRel.
	DisableFallback bool
	// Parallelism is the number of goroutines used for the per-cell surface
	// fits during construction; values ≤ 1 build serially. The built index
	// is identical for every worker count.
	Parallelism int
}

// NewCount2DIndex builds a two-key COUNT index over points (xs[i], ys[i]).
func NewCount2DIndex(xs, ys []float64, opt Options2D) (*Index2D, error) {
	d, err := opt.delta()
	if err != nil {
		return nil, err
	}
	inner, err := core.BuildCount2D(xs, ys, core.Options2D{
		Degree: opt.Degree, Delta: d, NoFallback: opt.DisableFallback,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &Index2D{inner: inner}, nil
}

// NewSum2DIndex builds a two-key SUM index over weighted points — the
// Section VI extension to other aggregate types. Weights must be
// non-negative for QueryRel's guarantee.
func NewSum2DIndex(xs, ys, weights []float64, opt Options2D) (*Index2D, error) {
	d, err := opt.delta()
	if err != nil {
		return nil, err
	}
	inner, err := core.BuildSum2D(xs, ys, weights, core.Options2D{
		Degree: opt.Degree, Delta: d, NoFallback: opt.DisableFallback,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &Index2D{inner: inner}, nil
}

func (o Options2D) delta() (float64, error) {
	if o.Delta > 0 {
		return o.Delta, nil
	}
	if o.EpsAbs > 0 {
		return core.Delta2DForAbs(o.EpsAbs), nil
	}
	return 0, ErrBadOptions
}

// Query answers the approximate COUNT/SUM over the half-open rectangle
// (xlo, xhi] × (ylo, yhi] and reports the certified absolute error bound in
// Result.Bound: 4δ (Lemma 6 — the four-corner identity evaluates the fitted
// surface four times, each within δ), or 0 for an empty (inverted)
// rectangle, whose answer is exactly 0. Rectangles with NaN coordinates are
// rejected with ErrInvalidRange.
func (ix *Index2D) Query(xlo, xhi, ylo, yhi float64) (Result, error) {
	res, err := ix.inner.Query(xlo, xhi, ylo, yhi)
	return Result(res), err
}

// QueryRel answers within relative error epsRel (Lemma 7 gate with exact
// aR-tree fallback). Rectangle validation matches Query; Result.Bound is
// 4δ for certified approximate answers and 0 when the exact path answered.
func (ix *Index2D) QueryRel(xlo, xhi, ylo, yhi, epsRel float64) (Result, error) {
	res, err := ix.inner.QueryRel(xlo, xhi, ylo, yhi, epsRel)
	return Result(res), err
}

// Stats2D summarises a two-key index, mirroring the 1D Stats fields where
// they apply: Leaves plays the role of Segments, the domain rectangle the
// role of KeyLo/KeyHi (the quadtree has no learned root, so there is no
// RootBytes analogue).
type Stats2D struct {
	Records       int
	Leaves        int // fitted surfaces (the 2D analogue of Segments)
	Depth         int
	Delta         float64
	IndexBytes    int
	FallbackBytes int // exact aR-tree for QueryRel (0 if disabled)
	// ForcedLeaves counts leaves that could not reach δ before the depth
	// cap (0 in healthy builds).
	ForcedLeaves int
	// The indexed domain rectangle — the 2D analogue of KeyLo/KeyHi.
	XLo, XHi float64
	YLo, YHi float64
}

// Stats returns structural information about the index.
func (ix *Index2D) Stats() Stats2D {
	xlo, xhi, ylo, yhi := ix.inner.Bounds()
	return Stats2D{
		Records:       ix.inner.Len(),
		Leaves:        ix.inner.NumLeaves(),
		Depth:         ix.inner.Depth(),
		Delta:         ix.inner.Delta(),
		IndexBytes:    ix.inner.SizeBytes(),
		FallbackBytes: ix.inner.FallbackSizeBytes(),
		ForcedLeaves:  ix.inner.ForcedLeaves(),
		XLo:           xlo,
		XHi:           xhi,
		YLo:           ylo,
		YHi:           yhi,
	}
}

// MarshalBinary serialises the quadtree structure (without the exact
// fallback); polyfit.Open2D restores it.
func (ix *Index2D) MarshalBinary() ([]byte, error) { return ix.inner.MarshalBinary() }
