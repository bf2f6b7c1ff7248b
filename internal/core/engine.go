package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// Engine is the query engine behind every one-key layout. It routes a
// query to the shards whose key ranges it overlaps and merges their
// partial answers; an unsharded static or dynamic index is the one-shard
// case (Index1D.Engine, Dynamic1D.Engine), and Sharded1D and
// ShardedDynamic1D embed theirs. The rules that make an answer certified
// are each written once, here:
//
//   - certify bounds one shard's approximate answer: 2δ for COUNT/SUM
//     (Lemma 2: two evaluations of the fitted CF, each within δ), δ for
//     MIN/MAX (Lemma 4). An inverted range is empty on every layout: its
//     answer is exact, with Bound 0.
//   - Merge folds the answers of disjoint key partitions. COUNT/SUM values
//     and bounds add, so m touched shards compose to 2δ·m; MIN/MAX values
//     combine and the bound stays the largest partial bound, because the
//     max (min) of answers each within δ of its partition's extremum is
//     within δ of the overall one. The router that places one sharded
//     index across processes merges the nodes' answers with it too.
//   - Result.certifies is the εrel gate of Lemmas 3 and 5 (and of Lemma 7
//     for the two-key Index2D). When it fails, exactSweep answers from the
//     shards' exact fallbacks.
//
// Every query method takes a context. Sharded queries check it between
// shards of a scatter-gather, and a long batch between chunks of
// batchCtxChunk ranges; per-shard point queries are sub-microsecond, so
// nothing inside them is worth interrupting. A cut-short call reports
// ctx.Err() and never a partial answer.
type Engine struct {
	agg   Agg
	delta float64
	// bounds are the K−1 routing boundaries: shard i owns keys k with
	// bounds[i−1] ≤ k < bounds[i] (bounds[−1] = −∞, bounds[K−1] = +∞).
	bounds []float64
	qs     []shardQuerier
}

// shardQuerier is the per-shard surface the engine needs; *Index1D and
// *Dynamic1D satisfy it.
type shardQuerier interface {
	RangeSum(lq, uq float64) (float64, error)
	RangeExtremum(lq, uq float64) (float64, bool, error)
	QueryBatch(ranges []Range) ([]BatchResult, error)
	// exact answers r from the exact fallback structures, or fails with
	// ErrNoFallback when the shard was built without them.
	exact(r Range) (Result, error)
}

// Result is one certified answer of the engine.
type Result struct {
	Value float64
	// Exact reports whether the exact fallback produced Value.
	Exact bool
	// Found is false when a MIN/MAX range holds no record.
	Found bool
	// Bound is the certified absolute error bound on Value.
	Bound float64
}

// certify attaches the Lemma 2/4 bound to one shard's approximate answer v
// over r. An inverted range is empty, so its answer is exact: 0 for
// COUNT/SUM, not found for MIN/MAX.
func certify(agg Agg, delta float64, r Range, v float64, found bool) Result {
	isSum := agg == Count || agg == Sum
	switch {
	case r.Hi < r.Lo:
		return Result{Found: isSum, Bound: 0}
	case isSum:
		return Result{Value: v, Found: true, Bound: 2 * delta}
	}
	return Result{Value: v, Found: found, Bound: delta}
}

// Merge folds the answers of disjoint key partitions into the answer for
// their union, in order: the shards one query touched, or the nodes one
// placed index is split across. COUNT/SUM values and bounds add; MIN/MAX
// values combine over the parts that found a record, and the bound is the
// largest part's. The union is exact only if every part is, and found if
// any part is.
func Merge(agg Agg, parts []Result) Result {
	out := Result{Exact: true, Bound: 0} // the union of no parts
	for _, p := range parts {
		out = out.merge(agg, p)
	}
	return out
}

// merge folds one more part into r (see Merge).
func (r Result) merge(agg Agg, p Result) Result {
	r.Exact = r.Exact && p.Exact
	if agg == Count || agg == Sum {
		r.Value += p.Value
		r.Found = r.Found || p.Found
		r.Bound += p.Bound
		return r
	}
	r.Value, r.Found = combineExtrema(agg, r.Value, r.Found, p.Value, p.Found)
	r.Bound = math.Max(r.Bound, p.Bound)
	return r
}

// combineExtrema combines two MIN/MAX partial answers; ok and bok report
// whether each found a record.
func combineExtrema(agg Agg, v float64, ok bool, bv float64, bok bool) (float64, bool) {
	switch {
	case !ok && !bok:
		return 0, false
	case !ok:
		return bv, true
	case !bok:
		return v, true
	}
	if agg == Max {
		return math.Max(v, bv), true
	}
	return math.Min(v, bv), true
}

// certifies is the εrel gate. An approximate answer A within Bound of the
// truth R satisfies |A − R| ≤ εrel·R when A ≥ Bound·(1 + 1/εrel): Lemma 3
// for COUNT/SUM, whose Bound is 2δ·m, Lemma 5 for MIN/MAX, whose Bound is δ
// (|A − R| ≤ δ gives R ≥ A − δ for MAX and MIN alike), and Lemma 7 for a
// two-key rectangle, whose Bound is 4δ. An answer with Bound 0 — an empty,
// inverted range — is exact and needs no gate; any other empty MIN/MAX
// range never certifies.
func (r Result) certifies(epsRel float64) bool {
	return r.Bound == 0 || r.Found && r.Value >= r.Bound*(1+1/epsRel)
}

// answerRel is the relative-error rule (Problem 2): the approximate answer
// stands when it certifies itself, and the exact fallback answers, with
// bound 0, when it does not.
func answerRel(epsRel float64, approx, exact func() (Result, error)) (Result, error) {
	if epsRel <= 0 {
		return Result{}, fmt.Errorf("%w: non-positive relative error %g", ErrInvalidRange, epsRel)
	}
	if est, err := approx(); err != nil || est.certifies(epsRel) {
		return est, err
	}
	return exact()
}

// validRanges rejects NaN endpoints up front: they would otherwise route
// arbitrarily through the shard and segment search and silently produce a
// garbage answer with a meaningless bound.
func validRanges(ranges ...Range) error {
	for _, r := range ranges {
		if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) {
			return fmt.Errorf("%w: NaN range endpoint (%g, %g)", ErrInvalidRange, r.Lo, r.Hi)
		}
	}
	return nil
}

// Query answers r approximately: the certified answers of the shards r
// overlaps, merged in shard order. NaN endpoints fail with
// ErrInvalidRange.
func (s *Engine) Query(ctx context.Context, r Range) (Result, error) {
	if err := validRanges(r); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if r.Hi < r.Lo {
		return certify(s.agg, s.delta, r, 0, false), nil
	}
	a, b := shardSpan(s.bounds, r)
	if a == b {
		// Single-shard ranges (the common point/interior shape) skip the
		// gather machinery entirely — no per-query allocation.
		return s.shard(a, r), nil
	}
	parts := make([]Result, b-a+1)
	if err := gatherCtx(ctx, a, b, func(i int) { parts[i-a] = s.shard(i, r) }); err != nil {
		return Result{}, err
	}
	return Merge(s.agg, parts), nil
}

// shard answers r approximately on shard i, with its certified bound. The
// shard's only error, ErrWrongAgg, cannot occur: every shard was built for
// the engine's aggregate.
func (s *Engine) shard(i int, r Range) Result {
	if s.agg == Min || s.agg == Max {
		v, ok, _ := s.qs[i].RangeExtremum(r.Lo, r.Hi)
		return certify(s.agg, s.delta, r, v, ok)
	}
	v, _ := s.qs[i].RangeSum(r.Lo, r.Hi)
	return certify(s.agg, s.delta, r, v, true)
}

// QueryRel answers r within the relative error epsRel (Problem 2): the
// approximate answer when the εrel gate certifies it, else the exact
// fallbacks of every shard r overlaps (Result.Exact, Bound 0), each of
// which must have been built. A non-positive epsRel fails with
// ErrInvalidRange.
func (s *Engine) QueryRel(ctx context.Context, r Range, epsRel float64) (Result, error) {
	return answerRel(epsRel,
		func() (Result, error) { return s.Query(ctx, r) },
		func() (Result, error) { return s.exactSweep(ctx, r) })
}

// exactSweep answers a non-inverted r from the exact fallbacks of the
// shards it overlaps, merged in shard order.
func (s *Engine) exactSweep(ctx context.Context, r Range) (Result, error) {
	a, b := shardSpan(s.bounds, r)
	out := Merge(s.agg, nil)
	for i := a; i <= b; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		p, err := s.qs[i].exact(r)
		if err != nil {
			return Result{}, err
		}
		out = out.merge(s.agg, p)
	}
	return out, nil
}

// QueryBatch answers many ranges in one call, each with its certified
// bound: every range is routed only to the shards it overlaps, each shard
// answers its sub-batch through its amortised batch path (in parallel
// across shards), and the partial answers merge in shard order. Results
// are returned in input order.
func (s *Engine) QueryBatch(ctx context.Context, ranges []Range) ([]Result, error) {
	if err := validRanges(ranges...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]Result, len(ranges))
	if len(s.qs) == 1 {
		br, err := batchCtx(ctx, s.qs[0], ranges)
		if err != nil {
			return nil, err
		}
		for i, b := range br {
			out[i] = certify(s.agg, s.delta, ranges[i], b.Value, b.Found)
		}
		return out, nil
	}
	subs, slots := shardBatch(s.bounds, len(s.qs), ranges)
	results, err := gatherBatch(subs, func(i int, sub []Range) ([]BatchResult, error) {
		return batchCtx(ctx, s.qs[i], sub)
	})
	if err != nil {
		return nil, err
	}
	for i, r := range ranges {
		if r.Hi < r.Lo {
			out[i] = certify(s.agg, s.delta, r, 0, false) // routed nowhere
		} else {
			out[i] = Merge(s.agg, nil)
		}
	}
	for sh, res := range results {
		for k, b := range res {
			id := slots[sh][k]
			out[id] = out[id].merge(s.agg, certify(s.agg, s.delta, ranges[id], b.Value, b.Found))
		}
	}
	return out, nil
}

// batchCtxChunk is how many ranges a shard answers between context
// checks: large enough that the check cost vanishes against the per-range
// work, small enough that a deadline cuts a million-range batch off within
// tens of microseconds.
const batchCtxChunk = 1024

// batchCtx answers ranges on q after a ctx check, and a long batch under a
// context that can be cancelled in batchCtxChunk slices with a check
// before each. Per-range answers are independent, so the concatenation
// equals the unchunked batch; a context that can never be cancelled keeps
// the one-call batch, which a dynamic shard answers from one snapshot.
func batchCtx(ctx context.Context, q shardQuerier, ranges []Range) ([]BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(ranges) <= batchCtxChunk || ctx.Done() == nil {
		return q.QueryBatch(ranges)
	}
	out := make([]BatchResult, 0, len(ranges))
	for start := 0; start < len(ranges); start += batchCtxChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		part, err := q.QueryBatch(ranges[start:min(start+batchCtxChunk, len(ranges))])
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
}

// gatherSerialMax is the touched-shard count up to which scatter-gather
// runs the per-shard queries serially: a single-shard point query costs
// tens of nanoseconds, so fanning out to goroutines only pays once several
// shards are involved.
const gatherSerialMax = 3

// shardOf returns the index of the shard owning key k: the number of
// routing bounds ≤ k.
func shardOf(bounds []float64, k float64) int {
	return sort.Search(len(bounds), func(j int) bool { return bounds[j] > k })
}

// shardSpan returns the inclusive shard window [a, b] a non-inverted range
// without NaN endpoints overlaps.
func shardSpan(bounds []float64, r Range) (a, b int) {
	return shardOf(bounds, r.Lo), shardOf(bounds, r.Hi)
}

// gatherCtx runs f(i) for every shard index in [a, b] — serially when the
// window is small or the process has a single CPU (goroutine fan-out is
// pure overhead then), on one goroutine per shard otherwise. f must write
// only to its own slot of whatever output it fills.
//
// A cancelled or expired ctx makes the remaining shards abandon their work:
// the serial path stops between shards, the parallel path skips f in every
// worker that has not started yet. Returns ctx.Err() if the gather was cut
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
		a, b := shardSpan(bounds, r)
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

// --- introspection ----------------------------------------------------------

// Aggregate returns the aggregate the engine answers.
func (s *Engine) Aggregate() Agg { return s.agg }

// Delta returns the per-shard build δ.
func (s *Engine) Delta() float64 { return s.delta }

// NumShards returns K.
func (s *Engine) NumShards() int { return len(s.qs) }

// Bounds returns a copy of the K−1 routing boundaries.
func (s *Engine) Bounds() []float64 { return append([]float64(nil), s.bounds...) }

// ShardOf returns the index of the shard that owns key k.
func (s *Engine) ShardOf(k float64) int { return shardOf(s.bounds, k) }
