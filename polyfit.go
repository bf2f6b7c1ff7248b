package polyfit

// This file holds the package-wide vocabulary types: the aggregate
// functions and the coefficient encodings.

import (
	"repro/internal/core"
)

// Agg identifies the aggregate function of an index.
type Agg = core.Agg

// Aggregate functions supported by PolyFit (Definition 1 of the paper).
const (
	Count = core.Count
	Sum   = core.Sum
	Min   = core.Min
	Max   = core.Max
)

// Encoding identifies how an index stores its fitted coefficients (see
// WithEncoding and Stats.Encoding).
type Encoding = core.Encoding

// Coefficient encodings. EncAuto (the default) picks the smallest encoding
// that re-certifies the index's δ guarantee against the fitted data: packed
// integer lanes when possible, float32 lanes otherwise, raw float64 lanes as
// the always-valid fallback. Forcing EncF32 or EncPacked still falls back to
// a heavier encoding when certification fails (MIN/MAX, negative measures,
// or distributions the key grid cannot resolve); EncRaw is always honoured
// and is bit-identical to the historical per-segment layout.
const (
	EncAuto   = core.EncAuto
	EncRaw    = core.EncRaw
	EncF32    = core.EncF32
	EncPacked = core.EncPacked
)
