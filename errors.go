package polyfit

import (
	"errors"

	"repro/internal/core"
)

// Sentinel errors surfaced by the public API. Every constructor and query
// path wraps one of these with %w, so callers classify failures with
// errors.Is instead of matching message text:
//
//	ix, err := polyfit.Open(blob)
//	if errors.Is(err, polyfit.ErrCorruptBlob) { ... }
var (
	// ErrEmptyKeys is returned by builds over an empty key set.
	ErrEmptyKeys = core.ErrEmptyDataset
	// ErrUnsortedKeys is returned by builds whose keys are not strictly
	// increasing.
	ErrUnsortedKeys = core.ErrUnsortedKeys
	// ErrAggMismatch is returned when a query or build names an aggregate
	// the index (or the Spec) does not support.
	ErrAggMismatch = core.ErrWrongAgg
	// ErrInvalidRange is returned by queries with arguments the index cannot
	// interpret: NaN range endpoints, NaN rectangle coordinates, or a
	// non-positive relative error.
	ErrInvalidRange = core.ErrInvalidRange
	// ErrCorruptBlob is returned by Open, Open2D and Assemble when a
	// serialised blob is corrupt, truncated, or internally inconsistent. Garbage input is always rejected with an
	// error wrapping this sentinel — never a panic.
	ErrCorruptBlob = core.ErrBadFormat
	// ErrNoFallback is returned by relative-error queries when the index
	// carries no exact fallback (built with WithFallback(false) or
	// Options2D.DisableFallback, or loaded from a static blob).
	ErrNoFallback = core.ErrNoFallback
	// ErrDuplicateKey is returned by Inserter.Insert when the key is already
	// present (in the base index or the delta buffer).
	ErrDuplicateKey = core.ErrDuplicateKey
	// ErrInvalidRecord is returned by New, Inserter.Insert and
	// Inserter.InsertBatch for a record no index can hold: a NaN or
	// infinite key or measure (COUNT indexes ignore the measure).
	ErrInvalidRecord = core.ErrInvalidRecord
	// ErrBadOptions reports an invalid build configuration: neither a max
	// error (WithMaxError / Options2D.EpsAbs) nor a fitting tolerance
	// (WithDelta / Options2D.Delta) was set positive.
	ErrBadOptions = errors.New("polyfit: either a max error or a fitting tolerance δ must be positive")
)
