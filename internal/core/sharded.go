package core

import (
	"fmt"
	"math"
	"sync"
)

// Sharding: a Sharded1D (and its insertable sibling ShardedDynamic1D)
// range-partitions the key space into K contiguous shards, each backed by an
// ordinary PolyFit index over its own chunk of the data. Both embed the
// query Engine: a query scatters to the shards its range overlaps — located
// in O(log K) through the routing bounds — and the per-shard answers merge
// (COUNT/SUM add, so the bound composes to 2δ·m over m touched shards;
// MIN/MAX combine and stay within δ). Only construction and inserts are
// type-specific.
//
// # Why shard
//
// A single Dynamic1D serialises all inserts on one lock and merge-rebuilds
// over the whole dataset. With K shards, inserts route to the owning shard
// (shard-local locking), a hot shard's merge-rebuild re-fits only its own
// chunk, and queries to the other K−1 shards proceed completely
// undisturbed — queries are lock-free snapshot reads within each shard.

// maxShards caps the shard count (requested counts are clamped): routing is
// a binary search over the bounds, but per-query scatter cost grows with
// the touched-shard count, and thousands of shards stop paying for
// themselves long before this.
const maxShards = 1 << 12

// --- construction -----------------------------------------------------------

type chunk struct{ keys, measures []float64 }

// shardPlan validates the dataset and splits it into near-equal contiguous
// chunks, returning the routing bounds (the first key of every chunk after
// the first). It also divides opt's fit-parallelism budget across the
// chunks: shard builds already run one goroutine per shard, so keeping the
// per-shard worker count at the full setting would oversubscribe the CPUs
// K-fold (the produced indexes are identical for any worker count, so this
// only affects build latency).
func shardPlan(agg Agg, keys, measures []float64, shards int, opt Options) ([]chunk, []float64, Options, error) {
	if agg == Count {
		measures = make([]float64, len(keys)) // COUNT ignores measures, as its build does
	}
	if err := validateKeys(keys, measures); err != nil {
		return nil, nil, opt, err
	}
	if shards < 1 {
		shards = 1
	}
	if shards > len(keys) {
		shards = len(keys)
	}
	if shards > maxShards {
		shards = maxShards
	}
	if opt.Parallelism > 1 {
		opt.Parallelism = max(1, opt.Parallelism/shards)
	}
	chunks := make([]chunk, shards)
	bounds := make([]float64, 0, shards-1)
	for i := 0; i < shards; i++ {
		lo, hi := i*len(keys)/shards, (i+1)*len(keys)/shards
		chunks[i] = chunk{keys: keys[lo:hi:hi], measures: measures[lo:hi:hi]}
		if i > 0 {
			bounds = append(bounds, keys[lo])
		}
	}
	return chunks, bounds, opt, nil
}

// queriers adapts a typed shard slice to the engine's interface slice.
func queriers[T shardQuerier](shards []T) []shardQuerier {
	qs := make([]shardQuerier, len(shards))
	for i, sh := range shards {
		qs[i] = sh
	}
	return qs
}

// Sharded1D is a range-partitioned PolyFit index: K static shards over
// disjoint, ordered key ranges, queried scatter-gather.
type Sharded1D struct {
	Engine
	shards []*Index1D
}

// BuildSharded constructs a sharded index of the given aggregate: keys are
// split into shards contiguous chunks of near-equal count, and one Index1D
// is built per chunk (concurrently). measures may be nil for Count.
// shards is clamped to [1, min(len(keys), 4096)].
func BuildSharded(agg Agg, keys, measures []float64, shards int, opt Options) (*Sharded1D, error) {
	chunks, bounds, opt, err := shardPlan(agg, keys, measures, shards, opt)
	if err != nil {
		return nil, err
	}
	built := make([]*Index1D, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		wg.Add(1)
		go func(i int, c chunk) {
			defer wg.Done()
			built[i], errs[i] = Build(agg, c.keys, c.measures, opt)
		}(i, c)
	}
	wg.Wait()
	if err := firstErr(errs...); err != nil {
		return nil, err
	}
	return &Sharded1D{
		Engine: Engine{agg: agg, delta: built[0].delta, bounds: bounds, qs: queriers(built)},
		shards: built,
	}, nil
}

// Shard returns the i-th shard's index (immutable; for stats and tests).
func (s *Sharded1D) Shard(i int) *Index1D { return s.shards[i] }

// Len returns the total number of indexed records across all shards.
func (s *Sharded1D) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// NumSegments returns the total fitted-segment count across all shards.
func (s *Sharded1D) NumSegments() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.NumSegments()
	}
	return n
}

// SizeBytes reports the summed PolyFit footprint of all shards plus the
// routing bounds.
func (s *Sharded1D) SizeBytes() int {
	n := 8 * len(s.bounds)
	for _, sh := range s.shards {
		n += sh.SizeBytes()
	}
	return n
}

// RootSizeBytes reports the summed learned-root footprint of all shards
// (included in SizeBytes, as for Index1D).
func (s *Sharded1D) RootSizeBytes() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.RootSizeBytes()
	}
	return n
}

// FallbackSizeBytes reports the summed exact-fallback footprint.
func (s *Sharded1D) FallbackSizeBytes() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.FallbackSizeBytes()
	}
	return n
}

// KeyRange returns the smallest and largest indexed key across shards.
func (s *Sharded1D) KeyRange() (lo, hi float64) {
	lo, _ = s.shards[0].KeyRange()
	_, hi = s.shards[len(s.shards)-1].KeyRange()
	return lo, hi
}

// --- dynamic ---------------------------------------------------------------

// ShardedDynamic1D is the insertable sharded index: K Dynamic1D shards over
// disjoint key ranges. Inserts route to the owning shard and take only that
// shard's lock; a merge-rebuild re-fits one shard's chunk while queries to
// every shard — the rebuilding one included — keep answering from lock-free
// snapshots.
type ShardedDynamic1D struct {
	Engine
	shards []*Dynamic1D
}

// NewShardedDynamic builds a sharded dynamic index over the initial
// dataset; chunking and clamping follow BuildSharded.
func NewShardedDynamic(agg Agg, keys, measures []float64, shards int, opt Options) (*ShardedDynamic1D, error) {
	chunks, bounds, opt, err := shardPlan(agg, keys, measures, shards, opt)
	if err != nil {
		return nil, err
	}
	built := make([]*Dynamic1D, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for i, c := range chunks {
		wg.Add(1)
		go func(i int, c chunk) {
			defer wg.Done()
			built[i], errs[i] = NewDynamic(agg, c.keys, c.measures, opt)
		}(i, c)
	}
	wg.Wait()
	if err := firstErr(errs...); err != nil {
		return nil, err
	}
	return &ShardedDynamic1D{
		Engine: Engine{agg: agg, delta: built[0].state.Load().base.delta, bounds: bounds, qs: queriers(built)},
		shards: built,
	}, nil
}

// AssembleShardedDynamic reconstitutes a sharded dynamic index from
// already-restored shards and their routing bounds — the recovery path of
// the serving layer, where each shard's snapshot and WAL are recovered
// independently. The shards must agree on aggregate and δ, hold disjoint
// ascending key ranges consistent with the bounds, and len(bounds) must be
// len(shards)−1.
func AssembleShardedDynamic(bounds []float64, shards []*Dynamic1D) (*ShardedDynamic1D, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("%w: assemble sharded: no shards", ErrBadFormat)
	}
	if len(bounds) != len(shards)-1 {
		return nil, fmt.Errorf("%w: assemble sharded: %d bounds for %d shards", ErrBadFormat, len(bounds), len(shards))
	}
	agg := shards[0].agg
	delta := shards[0].state.Load().base.delta
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("%w: assemble sharded: non-finite bound %g", ErrBadFormat, b)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("%w: assemble sharded: bounds not strictly increasing at %d", ErrBadFormat, i)
		}
	}
	for i, sh := range shards {
		if sh.agg != agg {
			return nil, fmt.Errorf("%w: assemble sharded: shard %d aggregate %v, want %v", ErrBadFormat, i, sh.agg, agg)
		}
		if d := sh.state.Load().base.delta; d != delta {
			return nil, fmt.Errorf("%w: assemble sharded: shard %d delta %g, want %g", ErrBadFormat, i, d, delta)
		}
		lo, hi := sh.KeyRange()
		if i > 0 && lo < bounds[i-1] {
			return nil, fmt.Errorf("%w: assemble sharded: shard %d key %g below bound %g", ErrBadFormat, i, lo, bounds[i-1])
		}
		if i < len(bounds) && hi >= bounds[i] {
			return nil, fmt.Errorf("%w: assemble sharded: shard %d key %g at or above bound %g", ErrBadFormat, i, hi, bounds[i])
		}
	}
	return &ShardedDynamic1D{
		Engine: Engine{
			agg: agg, delta: delta,
			bounds: append([]float64(nil), bounds...),
			qs:     queriers(shards),
		},
		shards: shards,
	}, nil
}

// Insert routes the record to the shard owning its key and takes only that
// shard's lock, so inserts to different shards never contend and one
// shard's merge-rebuild never blocks the others. Duplicate keys within the
// owning shard are rejected (the routing bounds are static, so the owning
// shard is the only one that could hold the key).
func (s *ShardedDynamic1D) Insert(key, measure float64) error {
	return s.shards[shardOf(s.bounds, key)].Insert(key, measure)
}

// InsertBatch routes every record to the shard owning its key and applies
// each shard's records, in input order, with one Dynamic1D.InsertBatch
// call. Shards share no state, so the outcome — per-record errors, in
// input order, and every shard's state — is that of calling Insert on each
// record in turn. measures follows Dynamic1D.InsertBatch.
func (s *ShardedDynamic1D) InsertBatch(keys, measures []float64) []error {
	if len(s.shards) == 1 || measures != nil && len(measures) != len(keys) {
		// One shard takes the whole batch, and rejects a mismatched one
		// whole, as an unsharded index does.
		return s.shards[0].InsertBatch(keys, measures)
	}
	ids := make([][]int, len(s.shards))
	for i, k := range keys {
		sh := shardOf(s.bounds, k)
		ids[sh] = append(ids[sh], i)
	}
	errs := make([]error, len(keys))
	for sh, idx := range ids {
		if len(idx) == 0 {
			continue
		}
		ks, ms := make([]float64, len(idx)), make([]float64, len(idx))
		for j, i := range idx {
			ks[j] = keys[i]
			if measures != nil {
				ms[j] = measures[i]
			}
		}
		for j, err := range s.shards[sh].InsertBatch(ks, ms) {
			errs[idx[j]] = err
		}
	}
	return errs
}

// Rebuild forces a merge-rebuild of every shard (concurrently). Queries
// keep answering from each shard's previous snapshot throughout.
func (s *ShardedDynamic1D) Rebuild() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *Dynamic1D) {
			defer wg.Done()
			errs[i] = sh.Rebuild()
		}(i, sh)
	}
	wg.Wait()
	return firstErr(errs...)
}

// RebuildShard forces a merge-rebuild of one shard only; the other shards
// are untouched and their queries and inserts proceed undisturbed.
func (s *ShardedDynamic1D) RebuildShard(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrShardOutOfRange, i, len(s.shards))
	}
	return s.shards[i].Rebuild()
}

// Shard returns the i-th shard (for stats, per-shard persistence, tests).
func (s *ShardedDynamic1D) Shard(i int) *Dynamic1D { return s.shards[i] }

// Len returns the total record count (bases + buffers) across shards.
func (s *ShardedDynamic1D) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// BufferLen returns the total not-yet-merged insert count across shards.
func (s *ShardedDynamic1D) BufferLen() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.BufferLen()
	}
	return n
}
