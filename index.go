package polyfit

import (
	"context"

	"repro/internal/core"
)

// Range is one query interval. COUNT/SUM indexes use the paper's half-open
// (Lo, Hi] semantics (Equation 5), MIN/MAX the closed [Lo, Hi].
type Range = core.Range

// Result carries a certified query answer. Every query path of every index
// variant — static, dynamic, sharded, sharded dynamic, and two-key —
// returns one, so the paper's headline deterministic error guarantee is
// available uniformly, not only on particular layouts.
type Result struct {
	Value float64
	// Exact reports whether the exact fallback produced the value (the
	// approximate gate of Lemma 3/5/7 failed on a relative-error query).
	Exact bool
	// Found is false when a MIN/MAX range contains no records.
	Found bool
	// Bound is the certified absolute error bound on Value: 0 for exact
	// answers (inverted, empty ranges included), 2δ for COUNT/SUM and δ for
	// MIN/MAX approximate answers (Lemmas 2 and 4), the additively composed
	// 2δ·m for a sharded COUNT/SUM range touching m shards (sharded MIN/MAX
	// stays δ — extremum error does not accumulate across shards), and 4δ
	// for two-key COUNT/SUM rectangles (Lemma 6).
	Bound float64
}

// Index is the uniform contract of every one-key PolyFit index. polyfit.New
// constructs all variants behind it — the layout (static, dynamic, sharded)
// is configuration, not a type — and polyfit.Open restores any serialised
// one. Additional capabilities are discoverable via type assertion:
// insert-supporting variants implement Inserter, range-partitioned ones
// Sharder, and sharded dynamic ones ShardSnapshotter.
//
// Every layout answers through the same query engine, so a range gets the
// same kind of answer whatever the layout: NaN endpoints are rejected with
// ErrInvalidRange, and an inverted range (Hi < Lo) is empty — COUNT/SUM
// answer exactly 0 and MIN/MAX not found, with Bound 0, and QueryRel needs
// no exact fallback for it.
type Index interface {
	// Query answers the approximate range aggregate with the build-time
	// absolute guarantee, reported per answer in Result.Bound.
	Query(r Range) (Result, error)
	// QueryRel answers within the relative error epsRel (Problem 2): either
	// the approximate gate certifies the bound, or the exact fallback
	// answers (Result.Exact true, Result.Bound 0).
	QueryRel(r Range, epsRel float64) (Result, error)
	// QueryBatch answers many ranges in one call through the amortised batch
	// path; results are returned in input order, each with its own Bound.
	QueryBatch(ranges []Range) ([]Result, error)
	// QueryContext, QueryRelContext and QueryBatchContext are the same
	// queries under a context. Deadlines are best-effort abandonment at
	// natural boundaries, never mid-computation: a sharded query checks ctx
	// between shards, a batch between chunks of ranges. A cut-short call
	// reports ctx.Err() (context.DeadlineExceeded or context.Canceled) and
	// never a partial Result; a nil-error answer is bit-identical to the
	// plain method's.
	QueryContext(ctx context.Context, r Range) (Result, error)
	QueryRelContext(ctx context.Context, r Range, epsRel float64) (Result, error)
	QueryBatchContext(ctx context.Context, ranges []Range) ([]Result, error)
	// Stats returns structural information about the index.
	Stats() Stats
	// MarshalBinary serialises the index; polyfit.Open restores it.
	MarshalBinary() ([]byte, error)
}

// Inserter is implemented by the insert-supporting (dynamic) variants.
//
// Inserts land in an exactly aggregated delta buffer of two sorted runs: a
// tail of the newest records, rewritten by every call, which merges into
// the main run when it holds 1024 records. Applying a record therefore
// costs O(1024 + b/1024) copies for b buffered records, whether it arrives
// alone or in a batch; a batch pays the tail copy once. Once the buffer
// holds half as many records as the base, the insert that filled it
// re-fits the base over everything (a merge-rebuild), so growing an index
// from n₀ to n keys re-fits about 3n keys in all.
type Inserter interface {
	// Insert adds a (key, measure) record: InsertBatch's one-record case.
	// Duplicate keys are rejected with ErrDuplicateKey, non-finite keys and
	// measures with ErrInvalidRecord. COUNT indexes ignore the measure.
	Insert(key, measure float64) error
	// InsertBatch adds the records (keys[i], measures[i]) with one
	// published snapshot, and with exactly the outcome of calling Insert on
	// each in input order: errs[i] is the error Insert would have returned
	// for record i (nil when inserted), a key repeated within the batch
	// loses to its first occurrence, and the index ends in the state that
	// sequence of Inserts leaves, however the records are split into
	// batches. A nil measures slice stands for zeros (enough for COUNT);
	// otherwise it must be as long as keys, or every record fails with
	// ErrInvalidRecord.
	InsertBatch(keys, measures []float64) (errs []error)
	// Rebuild forces an immediate merge of the delta buffer into the base;
	// concurrent queries keep answering from the previous snapshot.
	Rebuild() error
	// BufferLen returns the number of not-yet-merged inserts.
	BufferLen() int
}

// Sharder is implemented by the range-partitioned variants.
type Sharder interface {
	// NumShards returns the shard count K.
	NumShards() int
	// ShardOf returns the shard index owning key k.
	ShardOf(k float64) int
	// Bounds returns a copy of the K−1 routing boundaries.
	Bounds() []float64
	// ShardStats reports each shard's structure, in shard order.
	ShardStats() []Stats
}

// ShardSnapshotter is implemented by sharded dynamic indexes, whose shards
// can be persisted and rebuilt independently — the unit of the serving
// layer's per-shard durability.
type ShardSnapshotter interface {
	Sharder
	// MarshalShard serialises shard i alone as a dynamic blob.
	MarshalShard(i int) ([]byte, error)
	// RebuildShard merge-rebuilds shard i alone; the other shards' queries
	// and inserts proceed undisturbed.
	RebuildShard(i int) error
}

// queries is the one implementation of Index's query methods, shared by
// every layout. The core engine answers each query — an unsharded index
// is its one-shard case — and owns the range validation, the εrel gate
// and the bound; this adapter only converts its answers.
type queries struct{ eng *core.Engine }

func (q queries) Query(r Range) (Result, error) {
	return q.QueryContext(context.Background(), r)
}

func (q queries) QueryRel(r Range, epsRel float64) (Result, error) {
	return q.QueryRelContext(context.Background(), r, epsRel)
}

func (q queries) QueryBatch(ranges []Range) ([]Result, error) {
	return q.QueryBatchContext(context.Background(), ranges)
}

func (q queries) QueryContext(ctx context.Context, r Range) (Result, error) {
	res, err := q.eng.Query(ctx, r)
	return Result(res), err
}

func (q queries) QueryRelContext(ctx context.Context, r Range, epsRel float64) (Result, error) {
	res, err := q.eng.QueryRel(ctx, r, epsRel)
	return Result(res), err
}

func (q queries) QueryBatchContext(ctx context.Context, ranges []Range) ([]Result, error) {
	res, err := q.eng.QueryBatch(ctx, ranges)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result(r)
	}
	return out, nil
}

// The four layouts differ only in how they report stats, serialise, and
// which capabilities they add.

type staticIndex struct {
	queries
	inner *core.Index1D
}

func newStaticIndex(inner *core.Index1D) *staticIndex {
	return &staticIndex{queries{inner.Engine()}, inner}
}

func (ix *staticIndex) Stats() Stats                   { return stats1D(ix.inner) }
func (ix *staticIndex) MarshalBinary() ([]byte, error) { return ix.inner.MarshalBinary() }

type dynamicIndex struct {
	queries
	inner *core.Dynamic1D
}

func newDynamicIndex(inner *core.Dynamic1D) *dynamicIndex {
	return &dynamicIndex{queries{inner.Engine()}, inner}
}

func (ix *dynamicIndex) Stats() Stats                   { return statsDynamic(ix.inner) }
func (ix *dynamicIndex) MarshalBinary() ([]byte, error) { return ix.inner.MarshalBinary() }

func (ix *dynamicIndex) Insert(key, measure float64) error { return ix.inner.Insert(key, measure) }
func (ix *dynamicIndex) InsertBatch(keys, measures []float64) []error {
	return ix.inner.InsertBatch(keys, measures)
}
func (ix *dynamicIndex) Rebuild() error { return ix.inner.Rebuild() }
func (ix *dynamicIndex) BufferLen() int { return ix.inner.BufferLen() }

type shardedIndex struct {
	queries
	inner *core.Sharded1D
}

func newShardedIndex(inner *core.Sharded1D) *shardedIndex {
	return &shardedIndex{queries{&inner.Engine}, inner}
}

func (ix *shardedIndex) Stats() Stats                   { return statsSharded(ix.inner) }
func (ix *shardedIndex) MarshalBinary() ([]byte, error) { return ix.inner.MarshalBinary() }

func (ix *shardedIndex) NumShards() int        { return ix.inner.NumShards() }
func (ix *shardedIndex) ShardOf(k float64) int { return ix.inner.ShardOf(k) }
func (ix *shardedIndex) Bounds() []float64     { return ix.inner.Bounds() }
func (ix *shardedIndex) ShardStats() []Stats   { return shardStatsStatic(ix.inner) }

type shardedDynamicIndex struct {
	queries
	inner *core.ShardedDynamic1D
}

func newShardedDynamicIndex(inner *core.ShardedDynamic1D) *shardedDynamicIndex {
	return &shardedDynamicIndex{queries{&inner.Engine}, inner}
}

func (ix *shardedDynamicIndex) Stats() Stats                   { return statsShardedDynamic(ix.inner) }
func (ix *shardedDynamicIndex) MarshalBinary() ([]byte, error) { return ix.inner.MarshalBinary() }

func (ix *shardedDynamicIndex) Insert(key, measure float64) error {
	return ix.inner.Insert(key, measure)
}
func (ix *shardedDynamicIndex) InsertBatch(keys, measures []float64) []error {
	return ix.inner.InsertBatch(keys, measures)
}
func (ix *shardedDynamicIndex) Rebuild() error { return ix.inner.Rebuild() }
func (ix *shardedDynamicIndex) BufferLen() int { return ix.inner.BufferLen() }

func (ix *shardedDynamicIndex) NumShards() int        { return ix.inner.NumShards() }
func (ix *shardedDynamicIndex) ShardOf(k float64) int { return ix.inner.ShardOf(k) }
func (ix *shardedDynamicIndex) Bounds() []float64     { return ix.inner.Bounds() }
func (ix *shardedDynamicIndex) ShardStats() []Stats   { return shardStatsDynamic(ix.inner) }

func (ix *shardedDynamicIndex) MarshalShard(i int) ([]byte, error) { return ix.inner.MarshalShard(i) }
func (ix *shardedDynamicIndex) RebuildShard(i int) error           { return ix.inner.RebuildShard(i) }
