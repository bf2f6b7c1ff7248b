package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Dynamic1D adds insert support to a PolyFit index — the paper's stated
// future work ("we will further develop some efficient techniques ... for
// handling the dynamic case"). The design is the standard delta-buffer
// scheme: inserts land in a sorted in-memory buffer that queries consult
// exactly, and once the buffer outgrows a fraction of the base the static
// index is rebuilt over the merged data.
//
// Because the buffer is aggregated exactly, every guarantee of the static
// index carries over unchanged: a COUNT/SUM answer is (static ± εabs) +
// (buffer, exact) and MIN/MAX combines two values each within the bound.
// Deletions are not supported (they would break the non-negative-measure
// assumption behind the relative-error lemmas); distinct keys are enforced
// exactly as in the static build.
//
// # Concurrency
//
// Dynamic1D is safe for concurrent use. All query state (base index, data
// arrays, insert buffer, buffer prefix sums) lives in one immutable
// snapshot behind an atomic pointer; queries load the pointer and never
// take a lock, so reads never block — not even behind a merge-rebuild,
// which constructs the new base off to the side and publishes it with a
// single pointer swap. Mutators (Insert, Rebuild) serialise on an RWMutex
// and publish copy-on-write snapshots. RebuildFraction must be set before
// the index is shared between goroutines.
type Dynamic1D struct {
	agg Agg
	opt Options

	// state is the immutable snapshot all queries read. Mutators build a
	// fresh dynState and Store it; they never modify a published one.
	state atomic.Pointer[dynState]

	// mu serialises mutators and guards rebuilds. Queries never take it.
	mu       sync.RWMutex
	rebuilds int // guarded by mu

	// RebuildFraction triggers a merge-rebuild when the buffer exceeds this
	// fraction of the base size (default 1/8). Set it before sharing the
	// index between goroutines.
	RebuildFraction float64
}

// dynState is one immutable snapshot of everything a query touches.
type dynState struct {
	base     *Index1D
	keys     []float64 // all base keys (kept for rebuilds)
	measures []float64
	bufKeys  []float64 // sorted insert buffer
	bufVals  []float64
	bufPre   []float64 // prefix sums over bufVals (COUNT/SUM only)
}

// NewDynamic builds a dynamic index of the given aggregate over the initial
// dataset.
func NewDynamic(agg Agg, keys, measures []float64, opt Options) (*Dynamic1D, error) {
	d := &Dynamic1D{
		agg:             agg,
		opt:             opt.withDefaults(), // concrete degree, so serialization round-trips it
		RebuildFraction: 0.125,
	}
	st, err := d.buildState(
		append([]float64(nil), keys...),
		append([]float64(nil), measures...),
	)
	if err != nil {
		return nil, err
	}
	d.state.Store(st)
	//lint:ignore lockguard d is still private to this constructor; no other goroutine can hold a reference yet
	d.rebuilds = 1
	return d, nil
}

// Build dispatches a static build for the given aggregate — the single
// construction entry point behind every public builder path (the per-agg
// BuildCount/BuildSum/BuildMax/BuildMin remain for direct use). measures
// may be nil for Count.
func Build(agg Agg, keys, measures []float64, opt Options) (*Index1D, error) {
	switch agg {
	case Count:
		return BuildCount(keys, opt)
	case Sum:
		return BuildSum(keys, measures, opt)
	case Max:
		return BuildMax(keys, measures, opt)
	case Min:
		return BuildMin(keys, measures, opt)
	default:
		return nil, fmt.Errorf("%w: unknown aggregate %v", ErrWrongAgg, agg)
	}
}

// buildState constructs a fresh snapshot (empty buffer) over the given
// arrays, which it takes ownership of.
func (d *Dynamic1D) buildState(keys, measures []float64) (*dynState, error) {
	base, err := Build(d.agg, keys, measures, d.opt)
	if err != nil {
		return nil, err
	}
	return &dynState{base: base, keys: keys, measures: measures}, nil
}

// merge returns the base arrays with the buffer folded in.
func (st *dynState) merge() (keys, measures []float64) {
	keys = make([]float64, 0, len(st.keys)+len(st.bufKeys))
	measures = make([]float64, 0, len(st.keys)+len(st.bufKeys))
	i, j := 0, 0
	for i < len(st.keys) || j < len(st.bufKeys) {
		if j == len(st.bufKeys) || (i < len(st.keys) && st.keys[i] < st.bufKeys[j]) {
			keys = append(keys, st.keys[i])
			measures = append(measures, st.measures[i])
			i++
		} else {
			keys = append(keys, st.bufKeys[j])
			measures = append(measures, st.bufVals[j])
			j++
		}
	}
	return keys, measures
}

// rebuildLocked merges from's buffer into a new base and publishes the
// result. Callers hold d.mu. On a build failure nothing is published: the
// currently visible snapshot stays in place and the error is returned, so
// an Insert that triggered the rebuild fails atomically (its record is
// dropped, matching the error the caller sees).
func (d *Dynamic1D) rebuildLocked(from *dynState) error {
	keys, measures := from.merge()
	st, err := d.buildState(keys, measures)
	if err != nil {
		return err
	}
	d.state.Store(st)
	d.rebuilds++
	return nil
}

// Insert adds a (key, measure) record. Duplicate keys (in the base or the
// buffer) are rejected, preserving the paper's distinct-key assumption, and
// so are NaN/±Inf keys and NaN measures, which would break the sorted-buffer
// invariant. COUNT indexes ignore the measure. If the insert triggers a merge-rebuild
// and the rebuild fails, the insert is dropped and the error returned —
// the visible snapshot never holds a record the caller was told failed.
func (d *Dynamic1D) Insert(key, measure float64) error {
	// Non-finite keys would land at an arbitrary position in the sorted
	// buffer (sort.SearchFloat64s treats NaN comparisons as false), silently
	// corrupting every later answer; NaN measures poison the prefix sums and
	// extrema the same way. Reject both up front, mirroring the strictly-
	// increasing-finite-keys contract the static build enforces.
	if math.IsNaN(key) || math.IsInf(key, 0) {
		return fmt.Errorf("%w: non-finite key %g (keys must be finite, as at build time)", ErrInvalidRecord, key)
	}
	if math.IsNaN(measure) {
		return fmt.Errorf("%w: NaN measure for key %g", ErrInvalidRecord, key)
	}
	if d.agg == Count {
		measure = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state.Load()
	if i := sort.SearchFloat64s(st.keys, key); i < len(st.keys) && st.keys[i] == key {
		return fmt.Errorf("%w: %g", ErrDuplicateKey, key)
	}
	i := sort.SearchFloat64s(st.bufKeys, key)
	if i < len(st.bufKeys) && st.bufKeys[i] == key {
		return fmt.Errorf("%w: %g", ErrDuplicateKey, key)
	}
	// Copy-on-write: concurrent queries may be reading the current slices,
	// so each insert publishes fresh buffer arrays. This costs O(b) copies
	// per insert — the same order as the sorted in-place insertion it
	// replaces — in exchange for lock-free readers; the buffer is capped
	// at max(64, n/8) records by the rebuild threshold.
	nb := len(st.bufKeys) + 1
	bufKeys := make([]float64, nb)
	bufVals := make([]float64, nb)
	copy(bufKeys, st.bufKeys[:i])
	copy(bufVals, st.bufVals[:i])
	bufKeys[i] = key
	bufVals[i] = measure
	copy(bufKeys[i+1:], st.bufKeys[i:])
	copy(bufVals[i+1:], st.bufVals[i:])
	next := &dynState{
		base: st.base, keys: st.keys, measures: st.measures,
		bufKeys: bufKeys, bufVals: bufVals,
	}
	if d.agg == Count || d.agg == Sum {
		// Prefix sums below i are unchanged; bulk-copy them and extend.
		pre := make([]float64, nb)
		copy(pre, st.bufPre[:i])
		run := 0.0
		if i > 0 {
			run = pre[i-1]
		}
		for j := i; j < nb; j++ {
			run += bufVals[j]
			pre[j] = run
		}
		next.bufPre = pre
	}
	threshold := int(d.RebuildFraction * float64(len(st.keys)))
	if threshold < 64 {
		threshold = 64
	}
	if nb >= threshold {
		return d.rebuildLocked(next)
	}
	d.state.Store(next)
	return nil
}

// bufferSum aggregates the buffer exactly over (lq, uq] in O(log b) via the
// snapshot's prefix sums.
func (st *dynState) bufferSum(lq, uq float64) float64 {
	lo := sort.Search(len(st.bufKeys), func(i int) bool { return st.bufKeys[i] > lq })
	hi := sort.Search(len(st.bufKeys), func(i int) bool { return st.bufKeys[i] > uq })
	if hi <= lo {
		return 0
	}
	s := st.bufPre[hi-1]
	if lo > 0 {
		s -= st.bufPre[lo-1]
	}
	return s
}

// bufferExtremum aggregates the buffer exactly over [lq, uq].
func (st *dynState) bufferExtremum(agg Agg, lq, uq float64) (float64, bool) {
	lo := sort.SearchFloat64s(st.bufKeys, lq)
	best := math.Inf(-1)
	if agg == Min {
		best = math.Inf(1)
	}
	found := false
	for i := lo; i < len(st.bufKeys) && st.bufKeys[i] <= uq; i++ {
		found = true
		if agg == Max && st.bufVals[i] > best || agg == Min && st.bufVals[i] < best {
			best = st.bufVals[i]
		}
	}
	return best, found
}

// RangeSum answers an approximate COUNT/SUM over (lq, uq]; the absolute
// guarantee of the base index is preserved (the buffer part is exact).
func (d *Dynamic1D) RangeSum(lq, uq float64) (float64, error) {
	st := d.state.Load()
	v, err := st.base.RangeSum(lq, uq)
	if err != nil {
		return 0, err
	}
	return v + st.bufferSum(lq, uq), nil
}

// RangeSumRel answers a COUNT/SUM query with the relative guarantee εrel
// (Problem 2). The Lemma 3 gate is applied to the combined estimate — the
// buffer part is exact, so the total absolute error is still ≤ 2δ — and on
// failure the base's exact fallback answers, again combined with the exact
// buffer aggregate.
func (d *Dynamic1D) RangeSumRel(lq, uq, epsRel float64) (val float64, usedExact bool, err error) {
	st := d.state.Load()
	base := st.base
	if base.agg != Sum && base.agg != Count {
		return 0, false, ErrWrongAgg
	}
	if epsRel <= 0 {
		return 0, false, fmt.Errorf("%w: non-positive relative error %g", ErrInvalidRange, epsRel)
	}
	if uq < lq {
		return 0, false, nil
	}
	a := base.CF(uq) - base.CF(lq) + st.bufferSum(lq, uq)
	if a >= 2*base.delta*(1+1/epsRel) {
		return a, false, nil
	}
	if base.exactCF == nil {
		return 0, false, ErrNoFallback
	}
	return base.exactCF.RangeSum(lq, uq) + st.bufferSum(lq, uq), true, nil
}

// RangeExtremum answers an approximate MIN/MAX over [lq, uq].
func (d *Dynamic1D) RangeExtremum(lq, uq float64) (float64, bool, error) {
	st := d.state.Load()
	v, ok, err := st.base.RangeExtremum(lq, uq)
	if err != nil {
		return 0, false, err
	}
	bv, bok := st.bufferExtremum(d.agg, lq, uq)
	return combineExtrema(d.agg, v, ok, bv, bok)
}

func combineExtrema(agg Agg, v float64, ok bool, bv float64, bok bool) (float64, bool, error) {
	switch {
	case !ok && !bok:
		return 0, false, nil
	case !ok:
		return bv, true, nil
	case !bok:
		return v, true, nil
	}
	if agg == Max {
		return math.Max(v, bv), true, nil
	}
	return math.Min(v, bv), true, nil
}

// RangeExtremumRel answers a MIN/MAX query with the relative guarantee
// εrel. The Lemma 5 gate is applied to the combined estimate (base within
// δ, buffer exact, so the combination is within δ); on failure the base's
// exact aggregate tree answers, combined with the exact buffer extremum.
func (d *Dynamic1D) RangeExtremumRel(lq, uq, epsRel float64) (val float64, usedExact, ok bool, err error) {
	st := d.state.Load()
	base := st.base
	if base.agg != Max && base.agg != Min {
		return 0, false, false, ErrWrongAgg
	}
	if epsRel <= 0 {
		return 0, false, false, fmt.Errorf("%w: non-positive relative error %g", ErrInvalidRange, epsRel)
	}
	bv, bok := st.bufferExtremum(d.agg, lq, uq)
	av, aok := base.maxInternal(lq, uq)
	if base.neg {
		av = -av
	}
	v, got, _ := combineExtrema(d.agg, av, aok, bv, bok)
	if got && v >= base.delta*(1+1/epsRel) {
		return v, false, true, nil
	}
	if base.exactExt == nil {
		return 0, false, false, ErrNoFallback
	}
	ev, eok := base.exactExt.Query(lq, uq)
	if base.neg {
		ev = -ev
	}
	v, got, _ = combineExtrema(d.agg, ev, eok, bv, bok)
	return v, true, got, nil
}

// QueryBatch answers many ranges in one call via the base index's
// amortised batch path, folding in the exact buffer aggregate per range.
// COUNT/SUM use (lo, hi] semantics, MIN/MAX use [lo, hi].
func (d *Dynamic1D) QueryBatch(ranges []Range) ([]BatchResult, error) {
	st := d.state.Load()
	out, err := st.base.QueryBatch(ranges)
	if err != nil {
		return nil, err
	}
	switch d.agg {
	case Count, Sum:
		for i, r := range ranges {
			out[i].Value += st.bufferSum(r.Lo, r.Hi)
		}
	default:
		for i, r := range ranges {
			if r.Hi < r.Lo {
				continue
			}
			bv, bok := st.bufferExtremum(d.agg, r.Lo, r.Hi)
			v, ok, _ := combineExtrema(d.agg, out[i].Value, out[i].Found, bv, bok)
			out[i] = BatchResult{Value: v, Found: ok}
		}
	}
	return out, nil
}

// Rebuild forces an immediate merge-rebuild. Queries keep answering from
// the previous snapshot until the new base is published.
func (d *Dynamic1D) Rebuild() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rebuildLocked(d.state.Load())
}

// Aggregate returns the aggregate the index was built for.
func (d *Dynamic1D) Aggregate() Agg { return d.agg }

// Len returns the total number of records (base + buffer).
func (d *Dynamic1D) Len() int {
	st := d.state.Load()
	return len(st.keys) + len(st.bufKeys)
}

// BufferLen returns the number of not-yet-merged inserts.
func (d *Dynamic1D) BufferLen() int { return len(d.state.Load().bufKeys) }

// KeyRange returns the smallest and largest key currently held, base and
// delta buffer combined, from one consistent snapshot.
func (d *Dynamic1D) KeyRange() (lo, hi float64) {
	st := d.state.Load()
	lo, hi = st.base.keyLo, st.base.keyHi
	if n := len(st.bufKeys); n > 0 {
		lo = math.Min(lo, st.bufKeys[0])
		hi = math.Max(hi, st.bufKeys[n-1])
	}
	return lo, hi
}

// BufferSizeBytes returns the exact memory footprint of the insert buffer:
// keys, measures, and (for COUNT/SUM) the prefix-aggregate array.
func (d *Dynamic1D) BufferSizeBytes() int { return d.state.Load().bufferBytes() }

func (st *dynState) bufferBytes() int {
	return 8 * (len(st.bufKeys) + len(st.bufVals) + len(st.bufPre))
}

// Rebuilds returns how many times the static index was (re)built, counting
// the initial construction.
func (d *Dynamic1D) Rebuilds() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.rebuilds
}

// Base exposes the current static index (for stats/inspection). The
// returned index is an immutable snapshot; a later merge-rebuild publishes
// a new one rather than mutating it.
func (d *Dynamic1D) Base() *Index1D { return d.state.Load().base }

// DynView is a consistent point-in-time view of a dynamic index, for stats
// reporting.
type DynView struct {
	Base        *Index1D
	Records     int // base + buffer
	BufferLen   int
	BufferBytes int
}

// View returns base and buffer statistics from a single snapshot, so the
// numbers are mutually consistent even under concurrent inserts.
func (d *Dynamic1D) View() DynView {
	st := d.state.Load()
	return DynView{
		Base:        st.base,
		Records:     len(st.keys) + len(st.bufKeys),
		BufferLen:   len(st.bufKeys),
		BufferBytes: st.bufferBytes(),
	}
}
