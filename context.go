package polyfit

import "context"

// ContextQuerier is implemented by every index polyfit.New builds: the
// Query/QueryRel/QueryBatch surface with context propagation. Deadline
// semantics are best-effort abandonment at natural boundaries, never
// mid-computation:
//
//   - Sharded variants check ctx between shards of a scatter-gather (and
//     inside the parallel fan-out, before each shard's work starts), so a
//     query touching many shards stops paying for shards it no longer
//     needs.
//   - Unsharded variants answer point queries in well under a microsecond,
//     so they only check ctx up front; batches additionally check between
//     chunks of batchCtxChunk ranges.
//
// A cut-short call reports ctx.Err() (context.DeadlineExceeded or
// context.Canceled) and never a partial Result. A nil-error answer from a
// context method is bit-identical to what the plain method would have
// returned.
type ContextQuerier interface {
	QueryContext(ctx context.Context, r Range) (Result, error)
	QueryRelContext(ctx context.Context, r Range, epsRel float64) (Result, error)
	QueryBatchContext(ctx context.Context, ranges []Range) ([]Result, error)
}

var (
	_ ContextQuerier = (*staticIndex)(nil)
	_ ContextQuerier = (*dynamicIndex)(nil)
	_ ContextQuerier = (*shardedIndex)(nil)
	_ ContextQuerier = (*shardedDynamicIndex)(nil)
)

// batchCtxChunk is how many ranges an unsharded batch answers between
// context checks: large enough that the check cost vanishes against the
// per-range work, small enough that a deadline cuts a million-range batch
// off within tens of microseconds.
const batchCtxChunk = 1024

// chunkedBatchCtx runs q over ranges in batchCtxChunk slices with a ctx
// check before each. Per-range answers are independent, so the
// concatenation is exactly the unchunked result.
func chunkedBatchCtx(ctx context.Context, ranges []Range, q func([]Range) ([]Result, error)) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ranges) <= batchCtxChunk {
		return q(ranges)
	}
	out := make([]Result, 0, len(ranges))
	for start := 0; start < len(ranges); start += batchCtxChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(start+batchCtxChunk, len(ranges))
		part, err := q(ranges[start:end])
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
}

// --- static ----------------------------------------------------------------

func (ix *staticIndex) QueryContext(ctx context.Context, r Range) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return ix.Query(r)
}

func (ix *staticIndex) QueryRelContext(ctx context.Context, r Range, epsRel float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return ix.QueryRel(r, epsRel)
}

func (ix *staticIndex) QueryBatchContext(ctx context.Context, ranges []Range) ([]Result, error) {
	return chunkedBatchCtx(ctx, ranges, ix.QueryBatch)
}

// --- dynamic ---------------------------------------------------------------

func (ix *dynamicIndex) QueryContext(ctx context.Context, r Range) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return ix.Query(r)
}

func (ix *dynamicIndex) QueryRelContext(ctx context.Context, r Range, epsRel float64) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return ix.QueryRel(r, epsRel)
}

func (ix *dynamicIndex) QueryBatchContext(ctx context.Context, ranges []Range) ([]Result, error) {
	return chunkedBatchCtx(ctx, ranges, ix.QueryBatch)
}

// --- sharded (both layouts, via the shared adapter) -------------------------

func (s shardedQueries) QueryContext(ctx context.Context, r Range) (Result, error) {
	if err := validateRanges(r); err != nil {
		return Result{}, err
	}
	switch s.c.Aggregate() {
	case Count, Sum:
		v, bound, err := s.c.RangeSumCtx(ctx, r.Lo, r.Hi)
		if err != nil {
			return Result{}, err
		}
		return Result{Value: v, Found: true, Bound: bound}, nil
	default:
		v, bound, ok, err := s.c.RangeExtremumCtx(ctx, r.Lo, r.Hi)
		if err != nil {
			return Result{}, err
		}
		return Result{Value: v, Found: ok, Bound: bound}, nil
	}
}

func (s shardedQueries) QueryRelContext(ctx context.Context, r Range, epsRel float64) (Result, error) {
	if err := validateRanges(r); err != nil {
		return Result{}, err
	}
	switch s.c.Aggregate() {
	case Count, Sum:
		v, bound, exact, err := s.c.RangeSumRelCtx(ctx, r.Lo, r.Hi, epsRel)
		if err != nil {
			return Result{}, err
		}
		return Result{Value: v, Exact: exact, Found: true, Bound: bound}, nil
	default:
		v, bound, exact, ok, err := s.c.RangeExtremumRelCtx(ctx, r.Lo, r.Hi, epsRel)
		if err != nil {
			return Result{}, err
		}
		return Result{Value: v, Exact: exact, Found: ok, Bound: bound}, nil
	}
}

func (s shardedQueries) QueryBatchContext(ctx context.Context, ranges []Range) ([]Result, error) {
	if err := validateRanges(ranges...); err != nil {
		return nil, err
	}
	br, err := s.c.QueryBatchCtx(ctx, ranges)
	if err != nil {
		return nil, err
	}
	return batchResults(s.c.Aggregate(), s.c.Delta(), ranges, br, func(r Range) int {
		return s.c.ShardsTouched(r.Lo, r.Hi)
	}), nil
}
