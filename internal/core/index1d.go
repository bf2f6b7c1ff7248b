// Package core implements the PolyFit index — the paper's primary
// contribution. A PolyFit index replaces the n keys of a traditional index
// with h ≪ n fitted polynomial segments (Section IV, Figure 6), each
// satisfying the bounded δ-error constraint (Definition 3), and answers
// approximate range aggregate queries with the absolute/relative guarantees
// of Section V:
//
//   - COUNT/SUM: A = P_Iu(uq) − P_Il(lq); δ = εabs/2 gives |A − R| ≤ εabs
//     (Lemma 2), and Lemma 3 gates the relative guarantee with an exact
//     fallback.
//   - MIN/MAX: exact per-segment extrema cover fully-included segments
//     (the internal nodes of Figure 4 — realised here as an O(1) sparse-table
//     RMQ over segment extrema) while the two boundary segments are resolved
//     by maximising the fitted polynomial over the clipped interval
//     (Eq. 17); δ = εabs gives Lemma 4, Lemma 5 gates the relative case.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/artree"
	"repro/internal/kca"
	"repro/internal/segment"
)

// Agg identifies the aggregate function of a range aggregate query.
type Agg int

// Supported aggregates (Definition 1).
const (
	Count Agg = iota
	Sum
	Min
	Max
)

func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Options configures an index build.
type Options struct {
	// Degree of the fitted polynomials; the paper's default is 2 (§VII-B).
	Degree int
	// Delta is the bounded fitting error δ of Definition 3. For an absolute
	// guarantee εabs use δ = εabs/2 for COUNT/SUM (Lemma 2) and δ = εabs for
	// MIN/MAX (Lemma 4) — DeltaForAbs does this.
	Delta float64
	// Backend selects the minimax solver (exchange by default).
	Backend segment.Backend
	// NoExpSearch grows segments one key at a time (ablation only).
	NoExpSearch bool
	// NoFallback skips building the exact structures used by relative-error
	// queries (Problem 2). Absolute-error queries never need them.
	NoFallback bool
	// Parallelism is the number of goroutines used by greedy segmentation
	// during construction; values ≤ 1 build serially. The produced index is
	// identical for every worker count (see segment.Config.Parallelism).
	Parallelism int
	// Encoding selects the coefficient-store encoding. The default EncAuto
	// picks the smallest encoding that re-certifies the build δ through the
	// encoded query pipeline (packed, then float32, then raw); EncRaw pins
	// the lossless layout; a forced compressed encoding falls back to the
	// next heavier one when it cannot certify.
	Encoding Encoding
}

func (o Options) withDefaults() Options {
	if o.Degree == 0 {
		o.Degree = 2
	}
	return o
}

// DeltaForAbs returns the build δ that guarantees the absolute error εabs
// for the given aggregate (Lemmas 2 and 4).
func DeltaForAbs(agg Agg, epsAbs float64) float64 {
	switch agg {
	case Count, Sum:
		return epsAbs / 2
	default:
		return epsAbs
	}
}

// Index1D is a PolyFit index over a single key (Sections IV–V).
type Index1D struct {
	agg    Agg
	degree int
	delta  float64
	neg    bool // MIN is implemented as MAX over negated measures

	// Fitted segments, struct-of-arrays: boundary lanes plus one contiguous
	// coefficient lane per polynomial degree (see encoding.go). enc selects
	// which lane family is populated.
	enc   Encoding
	segLo []float64 // raw/float32: exact start boundaries
	segHi []float64 // raw/float32: exact end boundaries
	frCtr []float64 // raw only: explicit frame centers (POL1 v1 fidelity)
	frHW  []float64 // raw only: explicit frame half-widths

	// Packed boundaries: starts quantized onto a uint32 grid over
	// [keyLo, keyHi]; key = keyLo + keyStep·q. Ends are the next start.
	loQ     []uint32
	keyStep float64

	// Coefficient lanes: lane j holds every segment's t^j coefficient.
	laneW     int         // lanes = max coefficient count (≤ degree+1)
	laneF64   [][]float64 // EncRaw
	laneF32   [][]float32 // EncF32
	laneU16   [][]uint16  // EncPacked: per lane, one of u16/u32 is set
	laneU32   [][]uint32  // EncPacked
	laneOff   []float64   // EncPacked: per-lane affine grid offset
	laneScale []float64   // EncPacked: per-lane affine grid scale

	// Learned root over the segment starts (an RMI-style flat interpolation
	// table): for key k the answer to locate lies in
	// [rootTable[b]−1, rootTable[b+1]−1] where b is k's bucket, so a point
	// lookup costs O(1) expected instead of a binary search. Nil when the
	// index has a single segment or a degenerate key span. Packed indexes
	// bucket in integer grid space (bucket = q >> rootShift) so build and
	// lookup can never disagree through float rounding.
	rootTable []int32 // rootTable[b] = #segments whose Lo falls in a bucket < b
	rootLo    float64 // loAt(0)
	rootScale float64 // buckets per key unit: (len(rootTable)−1) / span
	rootShift uint32  // packed: grid cells per bucket = 1 << rootShift

	// Second root level (the recursive-PGM idea): buckets whose windows
	// outgrow the linear scan get their own small interpolation table, so
	// clustered key distributions keep O(1)-expected locate instead of
	// degrading to a windowed binary search.
	rootSubs     []rootSub
	rootSubTable []int32

	// MAX/MIN only: exact extremum of each segment + sparse-table RMQ over
	// them (plays the role of the aggregate tree's internal nodes).
	segExt []float64
	rmq    [][]float64

	// Exact fallbacks for Problem 2 (nil when Options.NoFallback).
	exactCF  *kca.Array
	exactExt *artree.MaxTree

	n          int
	keyLo      float64
	keyHi      float64
	total      float64 // CF(+∞) for SUM/COUNT
	buildsFits int     // total solver iterations spent during construction
}

// BuildCount constructs a PolyFit index for range COUNT queries: the fitted
// function is the key-cumulative function with unit measures.
func BuildCount(keys []float64, opt Options) (*Index1D, error) {
	ones := make([]float64, len(keys))
	for i := range ones {
		ones[i] = 1
	}
	ix, err := buildCumulative(keys, ones, opt)
	if err != nil {
		return nil, err
	}
	ix.agg = Count
	return ix, nil
}

// BuildSum constructs a PolyFit index for range SUM queries over CFsum
// (Equation 4). Measures must be non-negative for the relative-error
// guarantee (the absolute guarantee holds regardless).
func BuildSum(keys, measures []float64, opt Options) (*Index1D, error) {
	ix, err := buildCumulative(keys, measures, opt)
	if err != nil {
		return nil, err
	}
	ix.agg = Sum
	return ix, nil
}

// BuildMax constructs a PolyFit index for range MAX queries over the
// key-measure function DFmax (Equation 6).
func BuildMax(keys, measures []float64, opt Options) (*Index1D, error) {
	return buildExtremum(keys, measures, opt, false)
}

// BuildMin constructs a PolyFit index for range MIN queries. Internally it
// is BuildMax over negated measures — the "simple extension" the paper
// refers to.
func BuildMin(keys, measures []float64, opt Options) (*Index1D, error) {
	negated := make([]float64, len(measures))
	for i, m := range measures {
		negated[i] = -m
	}
	ix, err := buildExtremum(keys, negated, opt, true)
	if err != nil {
		return nil, err
	}
	return ix, nil
}

func validateKeys(keys, measures []float64) error {
	if len(keys) == 0 {
		return ErrEmptyDataset
	}
	if len(keys) != len(measures) {
		return fmt.Errorf("%w: %d keys, %d measures", ErrLengthMismatch, len(keys), len(measures))
	}
	for i := range keys {
		if err := checkRecord(keys[i], measures[i]); err != nil {
			return err
		}
		if i > 0 && keys[i] <= keys[i-1] {
			return fmt.Errorf("%w (violated at %d)", ErrUnsortedKeys, i)
		}
	}
	return nil
}

func buildCumulative(keys, measures []float64, opt Options) (*Index1D, error) {
	opt = opt.withDefaults()
	if err := validateKeys(keys, measures); err != nil {
		return nil, err
	}
	cf := make([]float64, len(keys))
	run := 0.0
	for i, m := range measures {
		run += m
		cf[i] = run
	}
	segs, err := segment.Greedy(keys, cf, segment.Config{
		Degree: opt.Degree, Delta: opt.Delta,
		Backend: opt.Backend, NoExpSearch: opt.NoExpSearch,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	ix := &Index1D{
		degree: opt.Degree,
		delta:  opt.Delta,
		n:      len(keys),
		keyLo:  keys[0],
		keyHi:  keys[len(keys)-1],
		total:  run,
	}
	ix.adoptRawSegments(segs)
	ix.selectEncoding(keys, cf, segs, opt, true)
	if !opt.NoFallback {
		arr, err := kca.New(keys, measures)
		if err != nil {
			return nil, err
		}
		ix.exactCF = arr
	}
	return ix, nil
}

func buildExtremum(keys, measures []float64, opt Options, negated bool) (*Index1D, error) {
	opt = opt.withDefaults()
	if err := validateKeys(keys, measures); err != nil {
		return nil, err
	}
	segs, err := segment.Greedy(keys, measures, segment.Config{
		Degree: opt.Degree, Delta: opt.Delta,
		Backend: opt.Backend, NoExpSearch: opt.NoExpSearch,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	ix := &Index1D{
		agg:    Max,
		degree: opt.Degree,
		delta:  opt.Delta,
		neg:    negated,
		n:      len(keys),
		keyLo:  keys[0],
		keyHi:  keys[len(keys)-1],
	}
	if negated {
		ix.agg = Min
	}
	ix.adoptRawSegments(segs)
	ix.selectEncoding(keys, measures, segs, opt, false)
	// Exact per-segment maxima (over the internally stored, possibly
	// negated, measures).
	ix.segExt = make([]float64, len(segs))
	for i, s := range segs {
		best := math.Inf(-1)
		for j := s.First; j <= s.Last; j++ {
			if measures[j] > best {
				best = measures[j]
			}
		}
		ix.segExt[i] = best
	}
	ix.rmq = buildSparseTable(ix.segExt)
	if !opt.NoFallback {
		tree, err := artree.NewMaxTree(keys, measures, artree.Max)
		if err != nil {
			return nil, err
		}
		ix.exactExt = tree
	}
	return ix, nil
}

// rootMaxLinear bounds the in-bucket linear scan of the learned root before
// handing the window to the second root level (and, past that, to a
// windowed binary search — the terminal escape for boundaries closer than
// float resolution).
const rootMaxLinear = 16

// rootMaxBuckets caps the root table so its footprint stays a small multiple
// of the segment array even for huge indexes (int32 buckets: 64 MiB here).
const rootMaxBuckets = 1 << 24

// rootSub is one second-level root: a private interpolation table over the
// segment starts of a single over-full level-1 bucket. Raw/float32 indexes
// interpolate in key space (lo, scale — same formula as level 1); packed
// indexes shift in grid space (subShift).
type rootSub struct {
	bucket   int32 // level-1 bucket this table serves
	off      int32 // start of the nb+1 entries in rootSubTable
	nb       int32 // sub-bucket count (power of two)
	lo       float64
	scale    float64
	subShift uint32
}

// buildRoot precomputes the learned root over the segment starts: a flat
// interpolation table with ~2 buckets per segment (raw/float32; the packed
// encoding halves bucket density to stay inside its byte budget, leaning on
// the second level instead), plus second-level tables for buckets that
// clustered distributions overfill.
func (ix *Index1D) buildRoot() {
	h := ix.NumSegments()
	ix.rootTable = nil
	ix.rootSubs, ix.rootSubTable = nil, nil
	ix.rootShift = 0
	if h < 2 {
		return
	}
	if ix.enc == EncPacked {
		ix.buildRootPacked()
		return
	}
	span := ix.segLo[h-1] - ix.segLo[0]
	if !(span > 0) || math.IsInf(span, 0) {
		return // degenerate or overflowing key span: binary search handles it
	}
	b := 1
	for b < 2*h && b < rootMaxBuckets {
		b <<= 1
	}
	ix.rootLo = ix.segLo[0]
	ix.rootScale = float64(b) / span
	table := make([]int32, b+1)
	seg := 0
	for t := 1; t <= b; t++ {
		// Advance over segments whose Lo buckets below t. The bucket of a
		// key is computed with exactly the query-time formula so float
		// rounding can never disagree between build and lookup.
		for seg < h && ix.rootBucketAt(ix.segLo[seg], b) < t {
			seg++
		}
		table[t] = int32(seg)
	}
	ix.rootTable = table
	ix.buildRootSubs()
}

// buildRootSubs adds the second root level: every level-1 bucket whose
// locate window exceeds the linear-scan budget gets its own interpolation
// table over just its segments. One indirection replaces the former
// windowed binary search, so a pathological distribution (all boundaries
// piled into a sliver of the key span) locates in O(1) expected again.
func (ix *Index1D) buildRootSubs() {
	table := ix.rootTable
	b := len(table) - 1
	for bb := 0; bb < b; bb++ {
		first, next := int(table[bb]), int(table[bb+1])
		if next-first <= rootMaxLinear {
			continue
		}
		lo := ix.segLo[first]
		span := ix.segLo[next-1] - lo
		if !(span > 0) || math.IsInf(span, 0) {
			continue // boundaries below float resolution: binary search
		}
		cnt := next - first
		nb := 1
		for nb < 2*cnt && nb < rootMaxBuckets {
			nb <<= 1
		}
		scale := float64(nb) / span
		sub := make([]int32, nb+1)
		seg := first
		for t := 1; t <= nb; t++ {
			for seg < next && subBucketAt(ix.segLo[seg], lo, scale, nb) < t {
				seg++
			}
			sub[t] = int32(seg)
		}
		sub[0] = int32(first)
		ix.rootSubs = append(ix.rootSubs, rootSub{
			bucket: int32(bb), off: int32(len(ix.rootSubTable)), nb: int32(nb),
			lo: lo, scale: scale,
		})
		ix.rootSubTable = append(ix.rootSubTable, sub...)
	}
}

// buildRootPacked is the packed-encoding root: buckets are grid cells
// shifted down (bucket = q >> rootShift), so bucketing is exact integer
// arithmetic shared verbatim between build and lookup. Bucket density is
// ~1 per 4 segments (vs 2–4 per segment for raw) to hold the root at about
// a byte per segment; the second level catches locally dense patches.
func (ix *Index1D) buildRootPacked() {
	h := len(ix.loQ)
	target := h / 4
	if target < 1 {
		target = 1
	}
	b := 1
	shift := uint32(32)
	for b < target && b < rootMaxBuckets {
		b <<= 1
		shift--
	}
	ix.rootShift = shift
	table := make([]int32, b+1)
	seg := 0
	for t := 1; t <= b; t++ {
		for seg < h && int(ix.loQ[seg]>>shift) < t {
			seg++
		}
		table[t] = int32(seg)
	}
	ix.rootTable = table
	for bb := 0; bb < b; bb++ {
		first, next := int(table[bb]), int(table[bb+1])
		if next-first <= rootMaxLinear {
			continue
		}
		// Split the bucket's cells finer: aim for ~2 sub-buckets per segment,
		// bounded by the cell count (starts are distinct grid cells, so
		// subShift = 0 always separates them).
		cnt := next - first
		subShift := shift
		for subShift > 0 && 1<<(shift-subShift) < 2*cnt {
			subShift--
		}
		nb := 1 << (shift - subShift)
		base := uint32(bb) << shift
		sub := make([]int32, nb+1)
		seg := first
		for t := 1; t <= nb; t++ {
			for seg < next && int((ix.loQ[seg]-base)>>subShift) < t {
				seg++
			}
			sub[t] = int32(seg)
		}
		sub[0] = int32(first)
		ix.rootSubs = append(ix.rootSubs, rootSub{
			bucket: int32(bb), off: int32(len(ix.rootSubTable)), nb: int32(nb),
			subShift: subShift,
		})
		ix.rootSubTable = append(ix.rootSubTable, sub...)
	}
}

// rootBucketAt maps a key (≥ rootLo) onto one of b buckets. Monotone
// non-decreasing in k, which is all the correctness argument needs.
func (ix *Index1D) rootBucketAt(k float64, b int) int {
	// Clamp in the float domain: converting a product beyond int64 range
	// (possible when the bucket scale is huge — clustered key spans) is
	// undefined and lands at MinInt64 on amd64, which would alias to
	// bucket 0 instead of the top bucket.
	f := (k - ix.rootLo) * ix.rootScale
	if !(f >= 0) { // negative or NaN
		return 0
	}
	if f >= float64(b) {
		return b - 1
	}
	return int(f)
}

// subBucketAt is rootBucketAt for a second-level table, with the same
// float-domain clamping (the sub scales are the extreme ones: a sub table
// exists precisely because its bucket's key span is tiny).
func subBucketAt(k, lo, scale float64, nb int) int {
	f := (k - lo) * scale
	if !(f >= 0) { // negative or NaN
		return 0
	}
	if f >= float64(nb) {
		return nb - 1
	}
	return int(f)
}

// findRootSub returns the second-level table of bucket bb, if one exists
// (binary search; the sub list is tiny — only over-full buckets carry one).
func (ix *Index1D) findRootSub(bb int) *rootSub {
	subs := ix.rootSubs
	lo, hi := 0, len(subs)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(subs[mid].bucket) < bb {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(subs) && int(subs[lo].bucket) == bb {
		return &subs[lo]
	}
	return nil
}

// locateLE returns the last segment index whose Lo ≤ k, or −1 when k
// precedes every segment. This is the primitive behind locate, maxInternal
// and the batch sweeps; with the learned root it costs O(1) expected —
// over-full buckets recurse into the second root level, and only windows
// still too dense for it (boundaries below float resolution) fall back to a
// windowed binary search.
func (ix *Index1D) locateLE(k float64) int {
	if ix.enc == EncPacked {
		return ix.locateLEPacked(k)
	}
	h := len(ix.segLo)
	if k < ix.segLo[0] {
		return -1
	}
	if k >= ix.segLo[h-1] {
		return h - 1
	}
	table := ix.rootTable
	if table == nil {
		// Degenerate key span (no root built): plain binary search.
		i := sort.SearchFloat64s(ix.segLo, k)
		if i < h && ix.segLo[i] == k {
			return i
		}
		return i - 1
	}
	bb := ix.rootBucketAt(k, len(table)-1)
	lo := int(table[bb]) - 1
	hi := int(table[bb+1]) - 1
	if lo < 0 {
		lo = 0
	}
	if hi-lo > rootMaxLinear {
		if sub := ix.findRootSub(bb); sub != nil {
			sb := subBucketAt(k, sub.lo, sub.scale, int(sub.nb))
			lo2 := int(ix.rootSubTable[int(sub.off)+sb]) - 1
			hi2 := int(ix.rootSubTable[int(sub.off)+sb+1]) - 1
			if lo2 > lo {
				lo = lo2
			}
			if hi2 < hi {
				hi = hi2
			}
		}
		if hi-lo > rootMaxLinear {
			// Terminal escape: binary search the window (invariant:
			// segLo[lo] ≤ k, and the answer is ≤ hi).
			return lo + sort.Search(hi-lo, func(j int) bool { return ix.segLo[lo+1+j] > k })
		}
	}
	for lo < hi && ix.segLo[lo+1] <= k {
		lo++
	}
	return lo
}

// quantizeKey maps a raw key onto the packed key grid with the same floor
// the boundary quantization used; out-of-range and NaN clamp into the grid.
func (ix *Index1D) quantizeKey(k float64) uint32 {
	q := math.Floor((k - ix.keyLo) / ix.keyStep)
	if !(q > 0) {
		return 0
	}
	if q > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(q)
}

// locateLEPacked is locateLE for the packed encoding: the query key is
// quantized once, then every comparison — root bucketing included — happens
// in exact integer grid space, so certification at build time and the
// query path can never diverge through float rounding.
func (ix *Index1D) locateLEPacked(k float64) int {
	if !(k >= ix.keyLo) {
		// Below the key domain (or NaN): precedes every segment unless the
		// first segment starts at the grid origin and k is inside the domain,
		// which the check above already excluded.
		return -1
	}
	return ix.locatePackedQ(ix.quantizeKey(k))
}

// locatePackedQ resolves a quantized key against the grid starts. The
// entire walk — root bucket, grid-shift sub-bucket, gallop, binary search —
// stays in integer grid space so the segment a key buckets into at query
// time is bit-for-bit the one build-time certification assigned it.
//
//polyfit:nofloat
func (ix *Index1D) locatePackedQ(kq uint32) int {
	h := len(ix.loQ)
	if kq < ix.loQ[0] {
		return -1
	}
	if kq >= ix.loQ[h-1] {
		return h - 1
	}
	table := ix.rootTable
	if table == nil {
		return searchLoQ(ix.loQ, 0, h, kq) - 1
	}
	bb := int(kq >> ix.rootShift)
	lo := int(table[bb]) - 1
	hi := int(table[bb+1]) - 1
	if lo < 0 {
		lo = 0
	}
	if hi-lo > rootMaxLinear {
		if sub := ix.findRootSub(bb); sub != nil {
			sb := int((kq - uint32(bb)<<ix.rootShift) >> sub.subShift)
			lo2 := int(ix.rootSubTable[int(sub.off)+sb]) - 1
			hi2 := int(ix.rootSubTable[int(sub.off)+sb+1]) - 1
			if lo2 > lo {
				lo = lo2
			}
			if hi2 < hi {
				hi = hi2
			}
		}
		if hi-lo > rootMaxLinear {
			return searchLoQ(ix.loQ, lo+1, hi+1, kq) - 1
		}
	}
	loQ := ix.loQ
	for lo < hi && loQ[lo+1] <= kq {
		lo++
	}
	return lo
}

// searchLoQ returns the first index in [lo, hi) whose grid start exceeds kq
// (hi if none) — sort.Search specialised to the uint32 lane.
//
//polyfit:nofloat
func searchLoQ(loQ []uint32, lo, hi int, kq uint32) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if loQ[mid] <= kq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// firstHiGE returns the first segment index whose Hi ≥ k (h when none).
// Derived from locateLE: segments are disjoint and ordered, so the candidate
// is the segment owning k or its right neighbour.
func (ix *Index1D) firstHiGE(k float64) int {
	j := ix.locateLE(k)
	if j < 0 {
		return 0
	}
	if ix.segHi[j] >= k {
		return j
	}
	return j + 1
}

// buildSparseTable precomputes an O(1) range-max structure over vals.
func buildSparseTable(vals []float64) [][]float64 {
	n := len(vals)
	levels := 1
	if n > 1 {
		levels = bits.Len(uint(n)) // log2(n)+1
	}
	table := make([][]float64, levels)
	table[0] = vals
	for k := 1; k < levels; k++ {
		span := 1 << k
		row := make([]float64, n-span+1)
		prev := table[k-1]
		half := span >> 1
		for i := range row {
			row[i] = math.Max(prev[i], prev[i+half])
		}
		table[k] = row
	}
	return table
}

// sparseMax returns max(vals[a..b]) from buildSparseTable(vals); a ≤ b
// required.
func sparseMax(table [][]float64, a, b int) float64 {
	k := bits.Len(uint(b-a+1)) - 1
	row := table[k]
	return math.Max(row[a], row[b-(1<<k)+1])
}

// locate returns the index of the segment responsible for key k: the last
// segment whose Lo ≤ k, clamped to [0, h−1]. Keys in inter-segment gaps
// resolve to the segment on their left (the cumulative function is constant
// across gaps). Resolution goes through the learned root — O(1) expected —
// instead of a binary search.
func (ix *Index1D) locate(k float64) int {
	if i := ix.locateLE(k); i >= 0 {
		return i
	}
	return 0
}

// Locate exposes the segment-location primitive for benchmarks and
// diagnostics: the index of the segment responsible for key k (see locate).
func (ix *Index1D) Locate(k float64) int { return ix.locate(k) }

// LocateBinary is the pre-learned-root reference implementation of Locate
// (a binary search over the segment boundaries). Kept exported so
// equivalence tests and the benchmark harness can compare the two paths.
func (ix *Index1D) LocateBinary(k float64) int {
	if ix.enc == EncPacked {
		if !(k >= ix.keyLo) {
			return 0
		}
		if i := searchLoQ(ix.loQ, 0, len(ix.loQ), ix.quantizeKey(k)) - 1; i > 0 {
			return i
		}
		return 0
	}
	i := sort.SearchFloat64s(ix.segLo, k)
	// SearchFloat64s finds the first Lo ≥ k.
	if i < len(ix.segLo) && ix.segLo[i] == k {
		return i
	}
	if i == 0 {
		return 0
	}
	return i - 1
}

// CF evaluates the approximate key-cumulative function at k. Evaluation is
// clamped into the located segment's key range: CF is constant across
// inter-segment gaps and beyond the domain, so clamping preserves the
// δ-error bound there instead of extrapolating the polynomial.
func (ix *Index1D) CF(k float64) float64 {
	if k < ix.keyLo {
		return 0
	}
	i := ix.locate(k)
	if hi := ix.hiAt(i); k > hi {
		k = hi
	}
	return ix.evalSeg(i, k)
}

// RangeSum answers an approximate range SUM/COUNT query over (lq, uq]
// (Equation 5 semantics). Built with δ = εabs/2, the result satisfies
// |A − R| ≤ εabs at workload endpoints (Lemma 2).
func (ix *Index1D) RangeSum(lq, uq float64) (float64, error) {
	if ix.agg != Sum && ix.agg != Count {
		return 0, ErrWrongAgg
	}
	if uq < lq {
		return 0, nil
	}
	return ix.CF(uq) - ix.CF(lq), nil
}

// RangeSumRel answers a range SUM/COUNT query with the relative guarantee
// εrel (Problem 2) through the engine's relative-error rule applied to this
// index alone, without building an engine per query: the Lemma 3 gate on
// the estimate, and the exact method when it fails (usedExact reports which
// path ran).
func (ix *Index1D) RangeSumRel(lq, uq, epsRel float64) (val float64, usedExact bool, err error) {
	r := Range{Lo: lq, Hi: uq}
	res, err := answerRel(epsRel, func() (Result, error) {
		v, err := ix.RangeSum(lq, uq)
		return certify(ix.agg, ix.delta, r, v, true), err
	}, func() (Result, error) { return ix.exact(r) })
	return res.Value, res.Exact, err
}

// RangeExtremum answers an approximate range MAX (or MIN) query over the
// closed interval [lq, uq]. ok is false when no segment overlaps the range.
// Built with δ = εabs, the result satisfies |A − R| ≤ εabs (Lemma 4).
func (ix *Index1D) RangeExtremum(lq, uq float64) (val float64, ok bool, err error) {
	if ix.agg != Max && ix.agg != Min {
		return 0, false, ErrWrongAgg
	}
	v, ok := ix.maxInternal(lq, uq)
	if !ok {
		return 0, false, nil
	}
	if ix.neg {
		v = -v
	}
	return v, true, nil
}

// maxInternal runs the Figure 10/11 traversal in the internal (possibly
// negated) measure space.
func (ix *Index1D) maxInternal(lq, uq float64) (float64, bool) {
	if uq < lq || uq < ix.keyLo || lq > ix.keyHi {
		return 0, false
	}
	h := len(ix.segLo)
	// First segment with Hi ≥ lq and last segment with Lo ≤ uq, both via the
	// learned root (one O(1) expected lookup each).
	a := ix.firstHiGE(lq)
	b := ix.locateLE(uq)
	if a > b || a >= h || b < 0 {
		return 0, false
	}
	return ix.maxOverSegs(a, b, lq, uq), true
}

// maxOverSegs maximises over the overlapping segment window [a, b]: exact
// RMQ on the fully covered middle, polynomial maximisation on the (at most
// two) boundary segments.
func (ix *Index1D) maxOverSegs(a, b int, lq, uq float64) float64 {
	best := math.Inf(-1)
	fullLo, fullHi := a, b // range of fully covered segments
	if lq > ix.segLo[a] || uq < ix.segHi[a] {
		best = math.Max(best, ix.segPolyMax(a, lq, uq))
		fullLo = a + 1
	}
	if b != a && (lq > ix.segLo[b] || uq < ix.segHi[b]) {
		best = math.Max(best, ix.segPolyMax(b, lq, uq))
		fullHi = b - 1
	}
	if fullLo <= fullHi {
		best = math.Max(best, sparseMax(ix.rmq, fullLo, fullHi))
	}
	return best
}

// segPolyMax maximises segment i's polynomial over the clipped interval
// (Eq. 17), bounding the result by the segment's exact maximum + δ so a
// between-sample bulge of the fit cannot push the answer above the
// guarantee envelope.
func (ix *Index1D) segPolyMax(i int, lq, uq float64) float64 {
	lo := math.Max(lq, ix.segLo[i])
	hi := math.Min(uq, ix.segHi[i])
	if hi < lo {
		return math.Inf(-1)
	}
	fp := ix.framedPolyAt(i)
	v, _ := fp.MaxOnInterval(lo, hi)
	if bound := ix.segExt[i] + ix.delta; v > bound {
		v = bound
	}
	return v
}

// RangeExtremumRel answers a range MAX/MIN query with the relative
// guarantee εrel, as RangeSumRel does (Lemma 5 gates the estimate; on
// failure the exact aggregate tree answers).
func (ix *Index1D) RangeExtremumRel(lq, uq, epsRel float64) (val float64, usedExact, ok bool, err error) {
	r := Range{Lo: lq, Hi: uq}
	res, err := answerRel(epsRel, func() (Result, error) {
		v, found, err := ix.RangeExtremum(lq, uq)
		return certify(ix.agg, ix.delta, r, v, found), err
	}, func() (Result, error) { return ix.exact(r) })
	return res.Value, res.Exact, res.Found, err
}

// exact answers r from the exact fallback structures: the prefix-sum array
// for COUNT/SUM, the aggregate tree for MIN/MAX.
func (ix *Index1D) exact(r Range) (Result, error) {
	if ix.agg == Count || ix.agg == Sum {
		if ix.exactCF == nil {
			return Result{}, ErrNoFallback
		}
		return Result{Value: ix.exactCF.RangeSum(r.Lo, r.Hi), Exact: true, Found: true, Bound: 0}, nil
	}
	if ix.exactExt == nil {
		return Result{}, ErrNoFallback
	}
	v, ok := ix.exactExt.Query(r.Lo, r.Hi)
	if !ok {
		return Result{Exact: true, Bound: 0}, nil
	}
	if ix.neg {
		v = -v
	}
	return Result{Value: v, Exact: true, Found: true, Bound: 0}, nil
}

// Engine returns the query engine over ix: the one-shard case of a sharded
// index.
func (ix *Index1D) Engine() *Engine {
	return &Engine{agg: ix.agg, delta: ix.delta, qs: []shardQuerier{ix}}
}

// --- introspection ---------------------------------------------------------

// Aggregate returns the aggregate the index was built for.
func (ix *Index1D) Aggregate() Agg { return ix.agg }

// Degree returns the polynomial degree.
func (ix *Index1D) Degree() int { return ix.degree }

// Delta returns the build δ.
func (ix *Index1D) Delta() float64 { return ix.delta }

// NumSegments returns h, the number of fitted polynomials.
func (ix *Index1D) NumSegments() int {
	if ix.enc == EncPacked {
		return len(ix.loQ)
	}
	return len(ix.segLo)
}

// Len returns the number of indexed records.
func (ix *Index1D) Len() int { return ix.n }

// KeyRange returns the smallest and largest indexed key.
func (ix *Index1D) KeyRange() (lo, hi float64) { return ix.keyLo, ix.keyHi }

// Total returns CF(+∞) for SUM/COUNT indexes.
func (ix *Index1D) Total() float64 { return ix.total }

// SizeBytes reports the memory footprint of the PolyFit structure itself:
// segment boundaries (or their quantized grid starts), coefficient lanes in
// whatever encoding the build certified, the learned-root tables, and (for
// MIN/MAX) the segment extrema and RMQ table. Exact-fallback structures are
// reported separately by FallbackSizeBytes since Problem-1 configurations
// do not carry them.
func (ix *Index1D) SizeBytes() int {
	sz := ix.BoundSizeBytes() + ix.CoeffSizeBytes()
	sz += 8 * len(ix.segExt)
	for _, row := range ix.rmq {
		sz += 8 * len(row)
	}
	return sz + ix.RootSizeBytes()
}

// RootSizeBytes reports the footprint of the two-level learned root that
// accelerates segment location: the level-1 int32 bucket table, its
// parameters, and any second-level tables built for over-full buckets.
// Included in SizeBytes; broken out so size/accuracy trade-off reports stay
// honest about where the bytes go.
func (ix *Index1D) RootSizeBytes() int {
	if ix.rootTable == nil {
		return 0
	}
	sz := 4*len(ix.rootTable) + 16
	sz += 4 * len(ix.rootSubTable)
	sz += 32 * len(ix.rootSubs) // bucket/off/nb + interpolation params
	return sz
}

// FallbackSizeBytes reports the memory of the exact structures used for
// Problem-2 fallbacks, if built.
func (ix *Index1D) FallbackSizeBytes() int {
	sz := 0
	if ix.exactCF != nil {
		sz += ix.exactCF.SizeBytes()
	}
	if ix.exactExt != nil {
		sz += ix.exactExt.SizeBytes()
	}
	return sz
}
