package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// The buffer is two sorted runs, each with its own summary: main, and a
// tail of fewer than tailCap records that merges into main when it fills.
// A batch of m records is sorted and merged into one new tail, O(t + m)
// copies for a tail of t records, and the O(b) merge of the tail into a
// main of b records happens once per tailCap records, so applying a record
// costs O(tailCap + b/tailCap) copies wherever it comes from.
//
// Because the buffer is aggregated exactly, every guarantee of the static
// index carries over: a COUNT/SUM answer is (static ± εabs) + (buffer,
// exact) and MIN/MAX combines two values each within the bound. The base is
// asked only at its own keys, where its fit is certified: COUNT/SUM
// evaluate CF at the largest base key ≤ each endpoint (CF is flat between
// keys), MIN/MAX take the base keys inside the range. The bound therefore
// does not depend on where the endpoints fall, even though buffered keys
// lie between the base's. Deletions are not supported (they would break
// the non-negative-measure assumption behind the relative-error lemmas);
// distinct keys are enforced exactly as in the static build.
//
// # Concurrency
//
// Dynamic1D is safe for concurrent use. All query state (base index, data
// arrays, both buffer runs and their summaries) lives in one immutable
// snapshot behind an atomic pointer; queries load the pointer and never
// take a lock, so reads never block — not even behind a merge-rebuild,
// which constructs the new base off to the side and publishes it with a
// single pointer swap. Mutators (InsertBatch, Insert, Rebuild) serialise
// on an RWMutex and publish copy-on-write snapshots. RebuildFraction must
// be set before the index is shared between goroutines.
type Dynamic1D struct {
	agg Agg
	opt Options

	// state is the immutable snapshot all queries read. Mutators build a
	// fresh dynState and Store it; they never modify a published one.
	state atomic.Pointer[dynState]

	// mu serialises mutators and guards rebuilds. Queries never take it.
	mu       sync.RWMutex
	rebuilds int // guarded by mu

	// RebuildFraction triggers a merge-rebuild once the buffer holds this
	// fraction of the base size, and at least 64 records (default 1/2).
	// Each rebuild re-fits the whole base, so growing an index from n₀ to n
	// keys re-fits about n·(1+f)/f keys in all for fraction f: 3n at 1/2.
	// Set it before sharing the index between goroutines.
	RebuildFraction float64
}

// tailCap is T, the tail run's capacity: the tail merges into main when it
// reaches tailCap records. It balances the O(t) tail copy every batch pays
// against the O(b) main copy every tailCap records pay.
const tailCap = 1024

// runBlock is the block length of a MIN/MAX run's extremum summary: a range
// scans at most two partial blocks and answers the whole blocks between
// them from a sparse table.
const runBlock = 64

// dynState is one immutable snapshot of everything a query touches.
type dynState struct {
	base     *Index1D
	keys     []float64 // all base keys (kept for rebuilds and endpoint snapping)
	measures []float64
	main     run // the buffer's bulk, rewritten when the tail merges in
	tail     run // the newest buffered records, rewritten by every batch
}

// run is one sorted, immutable run of buffered records with the summary
// its queries use.
type run struct {
	keys []float64
	vals []float64
	pre  []float64 // COUNT/SUM: pre[i] = vals[0] + … + vals[i]
	// blocks is, for MIN/MAX, a sparse table over the signed extremum (see
	// extSign) of every runBlock-record block.
	blocks [][]float64
}

// newRun summarises a sorted run for aggregate agg. It takes ownership of
// keys and vals.
func newRun(agg Agg, keys, vals []float64) run {
	r := run{keys: keys, vals: vals}
	switch {
	case agg == Count || agg == Sum:
		r.pre = prefixSums(vals)
	case len(vals) > 0:
		sign := extSign(agg)
		ext := make([]float64, (len(vals)+runBlock-1)/runBlock)
		for i := range ext {
			ext[i] = math.Inf(-1)
		}
		for i, v := range vals {
			ext[i/runBlock] = math.Max(ext[i/runBlock], sign*v)
		}
		r.blocks = buildSparseTable(ext)
	}
	return r
}

// extSign maps MIN onto MAX: a MIN run's signed extremum is its negated
// minimum.
func extSign(agg Agg) float64 {
	if agg == Min {
		return -1
	}
	return 1
}

// sum aggregates the run exactly over (lq, uq] in O(log n) from its prefix
// sums.
func (r *run) sum(lq, uq float64) float64 {
	lo := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] > lq })
	hi := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] > uq })
	if hi <= lo {
		return 0
	}
	s := r.pre[hi-1]
	if lo > 0 {
		s -= r.pre[lo-1]
	}
	return s
}

// extremum aggregates the run exactly over [lq, uq] for an aggregate of
// the given extSign: it scans the (at most two) partial blocks at the ends
// and answers the whole blocks between them from the sparse table.
func (r *run) extremum(sign, lq, uq float64) (float64, bool) {
	lo := sort.SearchFloat64s(r.keys, lq)
	hi := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] > uq }) - 1
	if lo > hi {
		return 0, false
	}
	best := math.Inf(-1)
	scan := func(a, b int) {
		for i := a; i <= b; i++ {
			best = math.Max(best, sign*r.vals[i])
		}
	}
	bl, bh := lo/runBlock, hi/runBlock
	if bl == bh {
		scan(lo, hi)
		return sign * best, true
	}
	scan(lo, (bl+1)*runBlock-1)
	scan(bh*runBlock, hi)
	if bl+1 < bh {
		best = math.Max(best, sparseMax(r.blocks, bl+1, bh-1))
	}
	return sign * best, true
}

func (r *run) bytes() int {
	n := len(r.keys) + len(r.vals) + len(r.pre)
	for _, row := range r.blocks {
		n += len(row)
	}
	return 8 * n
}

// NewDynamic builds a dynamic index of the given aggregate over the initial
// dataset.
func NewDynamic(agg Agg, keys, measures []float64, opt Options) (*Dynamic1D, error) {
	d := &Dynamic1D{
		agg:             agg,
		opt:             opt.withDefaults(), // concrete degree, so serialization round-trips it
		RebuildFraction: 0.5,
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

// record is one accepted insert on its way into a run.
type record struct{ key, measure float64 }

// sortedRecords returns recs' keys and measures in key order (recs' keys
// are distinct), leaving recs as it was.
func sortedRecords(recs []record) (keys, vals []float64) {
	recs = slices.Clone(recs)
	slices.SortFunc(recs, func(a, b record) int { return cmp.Compare(a.key, b.key) })
	keys = make([]float64, len(recs))
	vals = make([]float64, len(recs))
	for i, r := range recs {
		keys[i], vals[i] = r.key, r.measure
	}
	return keys, vals
}

// mergeRuns merges two sorted runs with disjoint keys into fresh arrays.
// It copies whole stretches of one run that fall between two keys of the
// other, found by galloping, so merging a few records into a long run
// costs a few searches and block copies rather than a compare per record.
func mergeRuns(ak, av, bk, bv []float64) (keys, vals []float64) {
	keys = make([]float64, len(ak)+len(bk))
	vals = make([]float64, len(keys))
	o := 0
	for len(ak) > 0 && len(bk) > 0 {
		if bk[0] < ak[0] {
			ak, av, bk, bv = bk, bv, ak, av
		}
		i := gallop(ak, bk[0])
		copy(keys[o:], ak[:i])
		copy(vals[o:], av[:i])
		o += i
		ak, av = ak[i:], av[i:]
	}
	copy(keys[o:], ak)
	copy(vals[o:], av)
	o += len(ak)
	copy(keys[o:], bk)
	copy(vals[o:], bv)
	return keys, vals
}

// gallop returns how many leading keys of the sorted s are below x, in
// O(log i) for an answer of i.
func gallop(s []float64, x float64) int {
	end := 1
	for end < len(s) && s[end] < x {
		end *= 2
	}
	lo := end / 2
	return lo + sort.SearchFloat64s(s[lo:min(end+1, len(s))], x)
}

// withTail returns st with recs merged into its tail, and the tail merged
// into main once it reaches tailCap records.
func (d *Dynamic1D) withTail(st *dynState, recs []record) *dynState {
	if len(recs) == 0 {
		return st
	}
	rk, rv := sortedRecords(recs)
	tk, tv := mergeRuns(st.tail.keys, st.tail.vals, rk, rv)
	next := &dynState{base: st.base, keys: st.keys, measures: st.measures, main: st.main}
	if len(tk) < tailCap {
		next.tail = newRun(d.agg, tk, tv)
		return next
	}
	mk, mv := mergeRuns(st.main.keys, st.main.vals, tk, tv)
	next.main = newRun(d.agg, mk, mv)
	return next
}

// rebuilt re-fits a fresh base over st's base, its buffer and recs.
func (d *Dynamic1D) rebuilt(st *dynState, recs []record) (*dynState, error) {
	rk, rv := sortedRecords(recs)
	bk, bv := mergeRuns(st.tail.keys, st.tail.vals, rk, rv)
	bk, bv = mergeRuns(st.main.keys, st.main.vals, bk, bv)
	return d.buildState(mergeRuns(st.keys, st.measures, bk, bv))
}

// threshold is the buffer length at which an insert into st merge-rebuilds.
func (d *Dynamic1D) threshold(st *dynState) int {
	return max(64, int(d.RebuildFraction*float64(len(st.keys))))
}

// holds reports whether k is a base or buffered key of st.
func (st *dynState) holds(k float64) bool {
	for _, keys := range [][]float64{st.keys, st.main.keys, st.tail.keys} {
		if i := sort.SearchFloat64s(keys, k); i < len(keys) && keys[i] == k {
			return true
		}
	}
	return false
}

func (st *dynState) bufferLen() int { return len(st.main.keys) + len(st.tail.keys) }

// checkRecord reports why a record cannot be indexed: keys must be finite
// (a NaN or infinite key has no place in a sorted run), and so must
// measures (one non-finite measure turns every SUM over it into NaN or ±Inf
// and every MIN/MAX into ±Inf, with a finite bound). The static build and
// InsertBatch both check every record here.
func checkRecord(key, measure float64) error {
	if math.IsNaN(key) || math.IsInf(key, 0) {
		return fmt.Errorf("%w: non-finite key %g", ErrInvalidRecord, key)
	}
	if math.IsNaN(measure) || math.IsInf(measure, 0) {
		return fmt.Errorf("%w: non-finite measure %g for key %g", ErrInvalidRecord, measure, key)
	}
	return nil
}

// InsertBatch adds (keys[i], measures[i]) records with exactly the outcome
// of calling Insert on each in input order, under one lock and with one
// published snapshot. errs[i] is the error Insert would have returned for
// record i, nil when it was inserted: records that fail checkRecord wrap
// ErrInvalidRecord, and a key already in the index, or earlier in the
// batch, wraps ErrDuplicateKey. The batch is cut wherever one-at-a-time
// inserts would merge the tail into main or merge-rebuild, so the
// resulting state depends only on the record sequence, never on how it was
// split into batches. COUNT indexes ignore the measures, and a nil
// measures slice stands for zeros; otherwise it must be as long as keys,
// or every record fails with ErrInvalidRecord.
//
// If a merge-rebuild fails, the record that triggered it is dropped with
// the build's error, the records before it stay buffered, and the batch
// goes on as Insert would: the visible snapshot never holds a record the
// caller was told failed.
func (d *Dynamic1D) InsertBatch(keys, measures []float64) []error {
	errs := make([]error, len(keys))
	if measures != nil && len(measures) != len(keys) {
		for i := range errs {
			errs[i] = fmt.Errorf("%w: %d measures for %d keys", ErrInvalidRecord, len(measures), len(keys))
		}
		return errs
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state.Load()
	cur := st
	var chunk []record            // accepted records not yet in cur
	inChunk := map[float64]bool{} // their keys
	for i, k := range keys {
		m := 0.0
		if measures != nil {
			m = measures[i]
		}
		if d.agg == Count {
			m = 1
		}
		if err := checkRecord(k, m); err != nil {
			errs[i] = err
			continue
		}
		if inChunk[k] || cur.holds(k) {
			errs[i] = fmt.Errorf("%w: %g", ErrDuplicateKey, k)
			continue
		}
		chunk = append(chunk, record{k, m})
		switch {
		case cur.bufferLen()+len(chunk) >= d.threshold(cur):
			next, err := d.rebuilt(cur, chunk)
			if err != nil {
				errs[i] = err
				// Neither cut was reached one record earlier, so the rest
				// of the chunk stays in the tail.
				next = d.withTail(cur, chunk[:len(chunk)-1])
			} else {
				d.rebuilds++
			}
			cur = next
		case len(cur.tail.keys)+len(chunk) >= tailCap:
			cur = d.withTail(cur, chunk)
		default:
			inChunk[k] = true
			continue
		}
		chunk = chunk[:0]
		clear(inChunk)
	}
	cur = d.withTail(cur, chunk)
	if cur != st {
		d.state.Store(cur)
	}
	return errs
}

// Insert adds one (key, measure) record: the one-record case of
// InsertBatch. Duplicate keys (in the base or the buffer) are rejected,
// preserving the paper's distinct-key assumption, and so are non-finite
// keys and measures. COUNT indexes ignore the measure. It costs O(t)
// copies for a tail of t records, plus its share of the tail merges; if
// the insert triggers a merge-rebuild and the rebuild fails, the record is
// dropped and the error returned.
func (d *Dynamic1D) Insert(key, measure float64) error {
	return d.InsertBatch([]float64{key}, []float64{measure})[0]
}

// snapLE returns the largest base key ≤ x, where the base's CF equals its
// value at x, or x itself below the first base key (where CF is 0).
func (st *dynState) snapLE(x float64) float64 {
	if i := sort.Search(len(st.keys), func(i int) bool { return st.keys[i] > x }); i > 0 {
		return st.keys[i-1]
	}
	return x
}

// baseRange maps r onto the base keys that answer it exactly as r would,
// so the base is evaluated only where its fit is certified: CF at the
// largest base key ≤ each endpoint for COUNT/SUM, and for MIN/MAX the
// range from the smallest base key ≥ r.Lo to the largest ≤ r.Hi (an
// inverted, empty range when no base key lies in r).
func (st *dynState) baseRange(agg Agg, r Range) Range {
	if agg == Count || agg == Sum {
		return Range{Lo: st.snapLE(r.Lo), Hi: st.snapLE(r.Hi)}
	}
	a := sort.SearchFloat64s(st.keys, r.Lo)
	b := sort.Search(len(st.keys), func(i int) bool { return st.keys[i] > r.Hi }) - 1
	if a > b {
		return Range{Lo: math.Inf(1), Hi: math.Inf(-1)}
	}
	return Range{Lo: st.keys[a], Hi: st.keys[b]}
}

// bufferSum aggregates the buffer exactly over (lq, uq] in O(log b) via
// both runs' prefix sums.
func (st *dynState) bufferSum(lq, uq float64) float64 {
	return st.main.sum(lq, uq) + st.tail.sum(lq, uq)
}

// bufferExtremum aggregates the buffer exactly over [lq, uq].
func (st *dynState) bufferExtremum(agg Agg, lq, uq float64) (float64, bool) {
	mv, mok := st.main.extremum(extSign(agg), lq, uq)
	tv, tok := st.tail.extremum(extSign(agg), lq, uq)
	return combineExtrema(agg, mv, mok, tv, tok)
}

// RangeSum answers an approximate COUNT/SUM over (lq, uq]; the absolute
// guarantee of the base index holds at any endpoint (the buffer part is
// exact).
func (d *Dynamic1D) RangeSum(lq, uq float64) (float64, error) {
	st := d.state.Load()
	b := st.baseRange(d.agg, Range{Lo: lq, Hi: uq})
	v, err := st.base.RangeSum(b.Lo, b.Hi)
	if err != nil {
		return 0, err
	}
	return v + st.bufferSum(lq, uq), nil
}

// RangeExtremum answers an approximate MIN/MAX over [lq, uq].
func (d *Dynamic1D) RangeExtremum(lq, uq float64) (float64, bool, error) {
	st := d.state.Load()
	b := st.baseRange(d.agg, Range{Lo: lq, Hi: uq})
	v, ok, err := st.base.RangeExtremum(b.Lo, b.Hi)
	if err != nil {
		return 0, false, err
	}
	bv, bok := st.bufferExtremum(d.agg, lq, uq)
	v, ok = combineExtrema(d.agg, v, ok, bv, bok)
	return v, ok, nil
}

// exact answers r from the base's exact fallback merged with the exact
// buffer aggregate (the buffer is one more disjoint partition), both read
// from one snapshot.
func (d *Dynamic1D) exact(r Range) (Result, error) {
	st := d.state.Load()
	base, err := st.base.exact(r)
	if err != nil {
		return Result{}, err
	}
	buf := Result{Exact: true, Found: true, Bound: 0}
	if d.agg == Count || d.agg == Sum {
		buf.Value = st.bufferSum(r.Lo, r.Hi)
	} else {
		buf.Value, buf.Found = st.bufferExtremum(d.agg, r.Lo, r.Hi)
	}
	return base.merge(d.agg, buf), nil
}

// Engine returns the query engine over d: the one-shard case of a sharded
// dynamic index.
func (d *Dynamic1D) Engine() *Engine {
	return &Engine{agg: d.agg, delta: d.state.Load().base.delta, qs: []shardQuerier{d}}
}

// QueryBatch answers many ranges in one call via the base index's
// amortised batch path over the ranges mapped onto base keys (baseRange),
// folding in the exact buffer aggregate per range. COUNT/SUM use (lo, hi]
// semantics, MIN/MAX use [lo, hi].
func (d *Dynamic1D) QueryBatch(ranges []Range) ([]BatchResult, error) {
	st := d.state.Load()
	onBase := make([]Range, len(ranges))
	for i, r := range ranges {
		onBase[i] = st.baseRange(d.agg, r)
	}
	out, err := st.base.QueryBatch(onBase)
	if err != nil {
		return nil, err
	}
	for i, r := range ranges {
		if d.agg == Count || d.agg == Sum {
			out[i].Value += st.bufferSum(r.Lo, r.Hi)
			continue
		}
		bv, bok := st.bufferExtremum(d.agg, r.Lo, r.Hi)
		v, ok := combineExtrema(d.agg, out[i].Value, out[i].Found, bv, bok)
		out[i] = BatchResult{Value: v, Found: ok}
	}
	return out, nil
}

// Rebuild forces an immediate merge-rebuild. Queries keep answering from
// the previous snapshot until the new base is published.
func (d *Dynamic1D) Rebuild() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, err := d.rebuilt(d.state.Load(), nil)
	if err != nil {
		return err
	}
	d.state.Store(st)
	d.rebuilds++
	return nil
}

// Aggregate returns the aggregate the index was built for.
func (d *Dynamic1D) Aggregate() Agg { return d.agg }

// Len returns the total number of records (base + buffer).
func (d *Dynamic1D) Len() int {
	st := d.state.Load()
	return len(st.keys) + st.bufferLen()
}

// BufferLen returns the number of not-yet-merged inserts.
func (d *Dynamic1D) BufferLen() int { return d.state.Load().bufferLen() }

// KeyRange returns the smallest and largest key currently held, base and
// delta buffer combined, from one consistent snapshot.
func (d *Dynamic1D) KeyRange() (lo, hi float64) {
	st := d.state.Load()
	lo, hi = st.base.keyLo, st.base.keyHi
	for _, keys := range [][]float64{st.main.keys, st.tail.keys} {
		if n := len(keys); n > 0 {
			lo = math.Min(lo, keys[0])
			hi = math.Max(hi, keys[n-1])
		}
	}
	return lo, hi
}

// BufferSizeBytes returns the exact memory footprint of the insert buffer:
// keys, measures, and each run's summary (prefix sums for COUNT/SUM, block
// extrema for MIN/MAX).
func (d *Dynamic1D) BufferSizeBytes() int { return d.state.Load().bufferBytes() }

func (st *dynState) bufferBytes() int { return st.main.bytes() + st.tail.bytes() }

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
		Records:     len(st.keys) + st.bufferLen(),
		BufferLen:   st.bufferLen(),
		BufferBytes: st.bufferBytes(),
	}
}
