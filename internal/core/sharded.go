package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// Sharding: a Sharded1D (and its insertable sibling ShardedDynamic1D)
// range-partitions the key space into K contiguous shards, each backed by an
// ordinary PolyFit index over its own chunk of the data. Queries scatter to
// the shards their range overlaps — located in O(log K) through the routing
// bounds — run the per-shard queries in parallel when enough shards are
// touched, and gather the partial aggregates: SUM/COUNT partials add,
// MIN/MAX partials combine. Both variants share one scatter-gather engine
// (shardSet); only construction, inserts, and the exact-fallback paths are
// type-specific.
//
// # Error composition
//
// Each shard is an independent PolyFit index built with the same δ, so each
// touched shard contributes its own error:
//
//   - COUNT/SUM: a shard's contribution is CF(uq) − CF(lq) over its own
//     keys, each evaluation within δ (Lemma 2), so the per-shard error is
//     ≤ 2δ and the total over m touched shards is ≤ 2δ·m. The composed
//     bound is reported alongside every answer.
//   - MIN/MAX: the gathered answer is the max (min) of per-shard answers
//     each within δ of its shard's true extremum (Lemma 4); the combination
//     is therefore within δ of the true extremum — the bound does NOT
//     accumulate with the shard count.
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

// gatherSerialMax is the touched-shard count up to which scatter-gather
// runs the per-shard queries serially: a single-shard point query costs
// tens of nanoseconds, so fanning out to goroutines only pays once several
// shards are involved.
const gatherSerialMax = 3

// shardQuerier is the per-shard query surface the scatter-gather engine
// needs; both *Index1D and *Dynamic1D satisfy it.
type shardQuerier interface {
	RangeSum(lq, uq float64) (float64, error)
	RangeExtremum(lq, uq float64) (float64, bool, error)
	QueryBatch(ranges []Range) ([]BatchResult, error)
}

// shardSet is the scatter-gather engine shared by Sharded1D and
// ShardedDynamic1D: the routing bounds plus one shardQuerier per shard.
// Its exported query methods are promoted onto both sharded types.
type shardSet struct {
	agg   Agg
	delta float64
	// bounds are the K−1 routing boundaries: shard i owns keys k with
	// bounds[i−1] ≤ k < bounds[i] (bounds[−1] = −∞, bounds[K−1] = +∞).
	bounds []float64
	qs     []shardQuerier
}

// shardOf returns the index of the shard owning key k: the number of
// routing bounds ≤ k.
func shardOf(bounds []float64, k float64) int {
	return sort.Search(len(bounds), func(j int) bool { return bounds[j] > k })
}

// shardSpan returns the inclusive shard window [a, b] a query range
// overlaps. NaN endpoints route arbitrarily (every bound comparison is
// false), which can invert the window — it is normalised so callers always
// see a well-formed a ≤ b; the per-shard queries handle non-finite
// endpoints themselves (garbage in, garbage out, never a panic).
func shardSpan(bounds []float64, lq, uq float64) (a, b int) {
	a, b = shardOf(bounds, lq), shardOf(bounds, uq)
	if b < a {
		a, b = b, a
	}
	return a, b
}

// gatherCtx runs f(i) for every shard index in [a, b] — serially when the
// window is small or the process has a single CPU (goroutine fan-out is
// pure overhead then), on one goroutine per shard otherwise. f must write
// only to its own slot of whatever output it fills.
//
// A cancelled or expired ctx makes the remaining shards abandon their work:
// the serial path stops between shards, the parallel path skips f in every
// worker that has not started yet (a shard query already running finishes —
// individual per-shard queries are sub-microsecond, so there is nothing
// worth interrupting inside them). Returns ctx.Err() if the gather was cut
// short; the partial output must then be discarded.
func gatherCtx(ctx context.Context, a, b int, f func(i int)) error {
	m := b - a + 1
	if m <= gatherSerialMax || runtime.GOMAXPROCS(0) == 1 {
		for i := a; i <= b; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f(i)
		}
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(m)
	for i := a; i <= b; i++ {
		go func(i int) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			f(i)
		}(i)
	}
	wg.Wait()
	return ctx.Err()
}

// sumBound is the composed absolute-error bound for a COUNT/SUM answer
// gathered from m shards built with δ: 2δ per touched shard (Lemma 2).
func sumBound(delta float64, m int) float64 { return 2 * delta * float64(m) }

// RangeSum answers an approximate COUNT/SUM over (lq, uq] by summing the
// per-shard estimates of every overlapping shard (in shard order, so the
// answer is deterministic). The returned bound is the composed absolute
// error guarantee 2δ·m for the m touched shards.
func (s *shardSet) RangeSum(lq, uq float64) (val, bound float64, err error) {
	return s.RangeSumCtx(context.Background(), lq, uq)
}

// RangeSumCtx is RangeSum honoring cancellation: an expired ctx stops the
// scatter-gather between shards and reports ctx.Err().
func (s *shardSet) RangeSumCtx(ctx context.Context, lq, uq float64) (val, bound float64, err error) {
	if s.agg != Sum && s.agg != Count {
		return 0, 0, ErrWrongAgg
	}
	if uq < lq {
		return 0, 0, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	a, b := shardSpan(s.bounds, lq, uq)
	if a == b {
		// Single-shard ranges (the common point/interior shape) skip the
		// gather machinery entirely — no per-query allocation.
		v, err := s.qs[a].RangeSum(lq, uq)
		return v, sumBound(s.delta, 1), err
	}
	vals := make([]float64, b-a+1)
	if err := gatherCtx(ctx, a, b, func(i int) {
		vals[i-a], _ = s.qs[i].RangeSum(lq, uq)
	}); err != nil {
		return 0, 0, err
	}
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total, sumBound(s.delta, b-a+1), nil
}

// RangeExtremum answers an approximate MIN/MAX over [lq, uq] by combining
// the per-shard answers. The bound is δ — extremum error does not compose
// with the shard count (each shard answer is within δ of its shard's true
// extremum, and max/min of such values stays within δ of the true answer).
func (s *shardSet) RangeExtremum(lq, uq float64) (val, bound float64, ok bool, err error) {
	return s.RangeExtremumCtx(context.Background(), lq, uq)
}

// RangeExtremumCtx is RangeExtremum honoring cancellation, as
// RangeSumCtx.
func (s *shardSet) RangeExtremumCtx(ctx context.Context, lq, uq float64) (val, bound float64, ok bool, err error) {
	if s.agg != Max && s.agg != Min {
		return 0, 0, false, ErrWrongAgg
	}
	if uq < lq {
		return 0, s.delta, false, nil
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, false, err
	}
	a, b := shardSpan(s.bounds, lq, uq)
	if a == b {
		v, got, err := s.qs[a].RangeExtremum(lq, uq)
		return v, s.delta, got, err
	}
	vals := make([]float64, b-a+1)
	oks := make([]bool, b-a+1)
	if err := gatherCtx(ctx, a, b, func(i int) {
		vals[i-a], oks[i-a], _ = s.qs[i].RangeExtremum(lq, uq)
	}); err != nil {
		return 0, 0, false, err
	}
	best, found := 0.0, false
	for i, v := range vals {
		best, found, _ = combineExtrema(s.agg, best, found, v, oks[i])
	}
	return best, s.delta, found, nil
}

// QueryBatch answers many ranges in one call: each range is routed only to
// the shards it overlaps, the per-shard sub-batches run in parallel
// through each shard's amortised batch path, and the partial aggregates
// are merged in shard order. Results are returned in input order.
func (s *shardSet) QueryBatch(ranges []Range) ([]BatchResult, error) {
	return s.QueryBatchCtx(context.Background(), ranges)
}

// QueryBatchCtx is QueryBatch honoring cancellation: per-shard sub-batches
// that have not started when ctx expires are abandoned and ctx.Err() is
// reported.
func (s *shardSet) QueryBatchCtx(ctx context.Context, ranges []Range) ([]BatchResult, error) {
	if s.agg < Count || s.agg > Max {
		return nil, ErrWrongAgg
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(s.qs) == 1 {
		return s.qs[0].QueryBatch(ranges)
	}
	subs, slots := shardBatch(s.bounds, len(s.qs), ranges)
	results, err := gatherBatch(subs, func(i int, sub []Range) ([]BatchResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return s.qs[i].QueryBatch(sub)
	})
	if err != nil {
		return nil, err
	}
	return mergeBatch(s.agg, ranges, results, slots), nil
}

// relGateSum runs the shared COUNT/SUM relative-error preamble: argument
// checks, the composed estimate and bound, and the Lemma 3 gate against
// the composed bound. pass reports a certified approximate answer;
// otherwise the caller must consult its exact fallbacks over the returned
// shard window.
func (s *shardSet) relGateSum(ctx context.Context, lq, uq, epsRel float64) (val, bound float64, pass, empty bool, a, b int, err error) {
	if s.agg != Sum && s.agg != Count {
		return 0, 0, false, false, 0, 0, ErrWrongAgg
	}
	if epsRel <= 0 {
		return 0, 0, false, false, 0, 0, fmt.Errorf("%w: non-positive relative error %g", ErrInvalidRange, epsRel)
	}
	if uq < lq {
		return 0, 0, false, true, 0, 0, nil
	}
	est, bnd, err := s.RangeSumCtx(ctx, lq, uq)
	if err != nil {
		return 0, 0, false, false, 0, 0, err
	}
	a, b = shardSpan(s.bounds, lq, uq)
	return est, bnd, est >= bnd*(1+1/epsRel), false, a, b, nil
}

// relGateExtremum mirrors relGateSum for MIN/MAX (Lemma 5 applied to the
// combined estimate).
func (s *shardSet) relGateExtremum(ctx context.Context, lq, uq, epsRel float64) (val float64, pass, ok, empty bool, a, b int, err error) {
	if s.agg != Max && s.agg != Min {
		return 0, false, false, false, 0, 0, ErrWrongAgg
	}
	if epsRel <= 0 {
		return 0, false, false, false, 0, 0, fmt.Errorf("%w: non-positive relative error %g", ErrInvalidRange, epsRel)
	}
	v, _, got, err := s.RangeExtremumCtx(ctx, lq, uq)
	if err != nil {
		return 0, false, false, false, 0, 0, err
	}
	if got && v >= s.delta*(1+1/epsRel) {
		return v, true, true, false, 0, 0, nil
	}
	if uq < lq {
		return 0, false, false, true, 0, 0, nil
	}
	a, b = shardSpan(s.bounds, lq, uq)
	return v, false, got, false, a, b, nil
}

// shardBatch routes each range of a batch to the shards it overlaps,
// returning one sub-batch per shard plus the output slot of every routed
// range. Ranges with Hi < Lo are not routed anywhere.
func shardBatch(bounds []float64, nShards int, ranges []Range) (subs [][]Range, slots [][]int32) {
	subs = make([][]Range, nShards)
	slots = make([][]int32, nShards)
	for i, r := range ranges {
		if r.Hi < r.Lo {
			continue
		}
		a, b := shardSpan(bounds, r.Lo, r.Hi)
		for j := a; j <= b; j++ {
			subs[j] = append(subs[j], r)
			slots[j] = append(slots[j], int32(i))
		}
	}
	return subs, slots
}

// gatherBatch runs query(i, sub) for every shard with a non-empty
// sub-batch — in parallel when two or more shards are involved — and
// returns the per-shard results.
func gatherBatch(subs [][]Range, query func(i int, sub []Range) ([]BatchResult, error)) ([][]BatchResult, error) {
	results := make([][]BatchResult, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, sub []Range) {
			defer wg.Done()
			results[i], errs[i] = query(i, sub)
		}(i, sub)
	}
	wg.Wait()
	if err := firstErr(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// mergeBatch folds per-shard batch results into the output in shard order
// (deterministic regardless of gather scheduling).
func mergeBatch(agg Agg, ranges []Range, results [][]BatchResult, slots [][]int32) []BatchResult {
	out := make([]BatchResult, len(ranges))
	if agg == Count || agg == Sum {
		for i := range out {
			out[i] = BatchResult{Value: 0, Found: true}
		}
		for sh, res := range results {
			for k, r := range res {
				out[slots[sh][k]].Value += r.Value
			}
		}
		return out
	}
	for sh, res := range results {
		for k, r := range res {
			id := slots[sh][k]
			v, ok, _ := combineExtrema(agg, out[id].Value, out[id].Found, r.Value, r.Found)
			out[id] = BatchResult{Value: v, Found: ok}
		}
	}
	return out
}

// --- introspection (shared) -------------------------------------------------

// Aggregate returns the aggregate the sharded index was built for.
func (s *shardSet) Aggregate() Agg { return s.agg }

// Delta returns the per-shard build δ.
func (s *shardSet) Delta() float64 { return s.delta }

// NumShards returns K.
func (s *shardSet) NumShards() int { return len(s.qs) }

// Bounds returns a copy of the K−1 routing boundaries.
func (s *shardSet) Bounds() []float64 { return append([]float64(nil), s.bounds...) }

// ShardOf returns the index of the shard that owns key k.
func (s *shardSet) ShardOf(k float64) int { return shardOf(s.bounds, k) }

// ShardsTouched returns the number of shards a range query over [lq, uq]
// scatters to — the m of the composed COUNT/SUM bound 2δ·m. Empty
// (inverted) ranges touch no shard.
func (s *shardSet) ShardsTouched(lq, uq float64) int {
	if uq < lq {
		return 0
	}
	a, b := shardSpan(s.bounds, lq, uq)
	return b - a + 1
}

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
	if len(keys) == 0 {
		return nil, nil, opt, ErrEmptyDataset
	}
	if agg == Count && measures == nil {
		measures = make([]float64, len(keys))
	}
	if len(keys) != len(measures) {
		return nil, nil, opt, fmt.Errorf("core: %d keys, %d measures", len(keys), len(measures))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, nil, opt, fmt.Errorf("%w (violated at %d)", ErrUnsortedKeys, i)
		}
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
	shardSet
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
		shardSet: shardSet{agg: agg, delta: built[0].delta, bounds: bounds, qs: queriers(built)},
		shards:   built,
	}, nil
}

// RangeSumRel answers a COUNT/SUM query with the relative guarantee εrel.
// The Lemma 3 gate runs against the composed bound B = 2δ·m: the
// approximate answer A certifies |A − R|/R ≤ εrel when A ≥ B(1 + 1/εrel);
// otherwise the per-shard exact fallbacks answer (and every touched shard
// must carry one).
// The returned bound is the composed 2δ·m for certified approximate
// answers and 0 when the exact path answered.
func (s *Sharded1D) RangeSumRel(lq, uq, epsRel float64) (val, bound float64, usedExact bool, err error) {
	return s.RangeSumRelCtx(context.Background(), lq, uq, epsRel)
}

// RangeSumRelCtx is RangeSumRel honoring cancellation across both the
// approximate gather and the per-shard exact fallback sweep.
func (s *Sharded1D) RangeSumRelCtx(ctx context.Context, lq, uq, epsRel float64) (val, bound float64, usedExact bool, err error) {
	est, bnd, pass, empty, a, b, err := s.relGateSum(ctx, lq, uq, epsRel)
	if err != nil || empty {
		return 0, 0, false, err
	}
	if pass {
		return est, bnd, false, nil
	}
	exact := 0.0
	for i := a; i <= b; i++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, false, err
		}
		if s.shards[i].exactCF == nil {
			return 0, 0, false, ErrNoFallback
		}
		exact += s.shards[i].exactCF.RangeSum(lq, uq)
	}
	return exact, 0, true, nil
}

// RangeExtremumRel answers a MIN/MAX query with the relative guarantee
// εrel (Lemma 5 applied to the combined estimate); on gate failure the
// per-shard exact aggregate trees answer.
// The returned bound is δ for certified approximate answers and 0 when
// the exact path answered.
func (s *Sharded1D) RangeExtremumRel(lq, uq, epsRel float64) (val, bound float64, usedExact, ok bool, err error) {
	return s.RangeExtremumRelCtx(context.Background(), lq, uq, epsRel)
}

// RangeExtremumRelCtx is RangeExtremumRel honoring cancellation, as
// RangeSumRelCtx.
func (s *Sharded1D) RangeExtremumRelCtx(ctx context.Context, lq, uq, epsRel float64) (val, bound float64, usedExact, ok bool, err error) {
	est, pass, got, empty, a, b, err := s.relGateExtremum(ctx, lq, uq, epsRel)
	if err != nil || empty {
		return 0, 0, false, false, err
	}
	if pass {
		return est, s.delta, false, got, nil
	}
	best, found := 0.0, false
	for i := a; i <= b; i++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, false, false, err
		}
		sh := s.shards[i]
		if sh.exactExt == nil {
			return 0, 0, false, false, ErrNoFallback
		}
		ev, eok := sh.exactExt.Query(lq, uq)
		if sh.neg {
			ev = -ev
		}
		best, found, _ = combineExtrema(s.agg, best, found, ev, eok)
	}
	return best, 0, true, found, nil
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
	shardSet
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
			if c.measures == nil {
				c.measures = make([]float64, len(c.keys))
			}
			built[i], errs[i] = NewDynamic(agg, c.keys, c.measures, opt)
		}(i, c)
	}
	wg.Wait()
	if err := firstErr(errs...); err != nil {
		return nil, err
	}
	return &ShardedDynamic1D{
		shardSet: shardSet{agg: agg, delta: built[0].state.Load().base.delta, bounds: bounds, qs: queriers(built)},
		shards:   built,
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
		shardSet: shardSet{
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

// RangeSumRel answers a COUNT/SUM query with the relative guarantee εrel,
// gating on the composed bound and falling back to the per-shard exact
// paths (which fold in each shard's delta buffer exactly).
// The returned bound mirrors Sharded1D.RangeSumRel.
func (s *ShardedDynamic1D) RangeSumRel(lq, uq, epsRel float64) (val, bound float64, usedExact bool, err error) {
	return s.RangeSumRelCtx(context.Background(), lq, uq, epsRel)
}

// RangeSumRelCtx is RangeSumRel honoring cancellation across both the
// approximate gather and the per-shard exact fallback sweep.
func (s *ShardedDynamic1D) RangeSumRelCtx(ctx context.Context, lq, uq, epsRel float64) (val, bound float64, usedExact bool, err error) {
	est, bnd, pass, empty, a, b, err := s.relGateSum(ctx, lq, uq, epsRel)
	if err != nil || empty {
		return 0, 0, false, err
	}
	if pass {
		return est, bnd, false, nil
	}
	exact := 0.0
	for i := a; i <= b; i++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, false, err
		}
		st := s.shards[i].state.Load()
		if st.base.exactCF == nil {
			return 0, 0, false, ErrNoFallback
		}
		exact += st.base.exactCF.RangeSum(lq, uq) + st.bufferSum(lq, uq)
	}
	return exact, 0, true, nil
}

// RangeExtremumRel answers a MIN/MAX query with the relative guarantee
// εrel; on gate failure the per-shard exact trees (combined with each
// shard's exact buffer extremum) answer.
// The returned bound mirrors Sharded1D.RangeExtremumRel.
func (s *ShardedDynamic1D) RangeExtremumRel(lq, uq, epsRel float64) (val, bound float64, usedExact, ok bool, err error) {
	return s.RangeExtremumRelCtx(context.Background(), lq, uq, epsRel)
}

// RangeExtremumRelCtx is RangeExtremumRel honoring cancellation, as
// RangeSumRelCtx.
func (s *ShardedDynamic1D) RangeExtremumRelCtx(ctx context.Context, lq, uq, epsRel float64) (val, bound float64, usedExact, ok bool, err error) {
	est, pass, got, empty, a, b, err := s.relGateExtremum(ctx, lq, uq, epsRel)
	if err != nil || empty {
		return 0, 0, false, false, err
	}
	if pass {
		return est, s.delta, false, got, nil
	}
	best, found := 0.0, false
	for i := a; i <= b; i++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, false, false, err
		}
		st := s.shards[i].state.Load()
		if st.base.exactExt == nil {
			return 0, 0, false, false, ErrNoFallback
		}
		ev, eok := st.base.exactExt.Query(lq, uq)
		if st.base.neg {
			ev = -ev
		}
		bv, bok := st.bufferExtremum(s.agg, lq, uq)
		ev, eok, _ = combineExtrema(s.agg, ev, eok, bv, bok)
		best, found, _ = combineExtrema(s.agg, best, found, ev, eok)
	}
	return best, 0, true, found, nil
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
