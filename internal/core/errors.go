package core

import "errors"

// Errors returned by build, query, mutation, and serialization entry
// points. Every failure path wraps one of these with %w, so callers (and
// the public polyfit package, which re-exports them as its sentinel set)
// can classify errors with errors.Is without matching message text. The
// errwrap analyzer (internal/lint) enforces this file as the package's
// complete sentinel vocabulary: exported functions may not construct
// errors that match none of them.
var (
	ErrEmptyDataset = errors.New("core: empty dataset")
	ErrUnsortedKeys = errors.New("core: keys must be strictly increasing")
	ErrWrongAgg     = errors.New("core: query does not match index aggregate")
	// ErrInvalidRange reports a query argument the index cannot interpret:
	// NaN range endpoints, NaN rectangle coordinates, or a non-positive
	// relative error.
	ErrInvalidRange = errors.New("core: invalid query range")
	ErrNoFallback   = errors.New("core: relative query needs exact fallback (built with NoFallback)")
	// ErrDuplicateKey reports an Insert whose key is already present. WAL
	// replay matches it to tell "already applied" (skip, idempotent) from a
	// genuine replay failure (which must fail recovery, not lose data).
	ErrDuplicateKey = errors.New("core: duplicate key")
	// ErrInvalidRecord reports a record no index can store, at build or at
	// insert: a non-finite key or measure.
	ErrInvalidRecord = errors.New("core: invalid record")
	// ErrLengthMismatch reports parallel dataset slices (keys/measures,
	// xs/ys/weights) of different lengths.
	ErrLengthMismatch = errors.New("core: mismatched dataset lengths")
	// ErrShardOutOfRange reports a shard index outside [0, NumShards).
	ErrShardOutOfRange = errors.New("core: shard index out of range")
)

// ErrBadFormat reports a corrupted or incompatible serialised index.
var ErrBadFormat = errors.New("core: bad serialized index format")
