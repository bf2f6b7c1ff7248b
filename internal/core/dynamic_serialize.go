package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/artree"
	"repro/internal/kca"
	"repro/internal/segment"
)

// Dynamic-index serialization: the versioned on-disk format that makes
// Dynamic1D round-trip. Unlike the static Index1D encoding — which keeps
// only the O(h) polynomial structure — a dynamic index must come back
// *dynamic*: able to accept inserts, detect duplicates, merge-rebuild, and
// (when built with fallbacks) certify relative-error answers. All of that
// needs the raw data, so the format carries the full state:
//
//	magic "POLD" | version 4 | agg | flags | options (solver backend,
//	coefficient-encoding mode, degree, parallelism, δ, rebuild fraction;
//	exp-search and fallback settings in flags) | raw keys (and measures,
//	except COUNT) | the buffer's main run (count, keys, measures) | its
//	tail run (count, keys, measures) | the fitted base index as a nested
//	Index1D blob
//
// v4 adds the tail run. The split between main and tail is state: it
// decides when the next tail merge happens and how a buffered SUM adds up,
// so an index restored from a snapshot answers bit for bit like the one
// that wrote it, and stays so under the same inserts. v3 adds the
// coefficient-encoding mode byte so merge-rebuilds after a restore keep
// honouring a forced encoding. v3 blobs (one buffer, loaded as main with
// an empty tail) and v2 blobs (no mode byte either, nested POL1 v1 base,
// mode defaulting to auto) still load.
//
// Restoring never re-fits: the base segments load straight from the nested
// blob, and only the O(n) exact fallbacks are reconstructed (when the
// options ask for them), so recovery cost is a linear scan, not a build.
// COUNT indexes skip the measures array — the build and the fallback both
// ignore it — which halves the blob for the most common aggregate.

const (
	magicDyn     = uint32(0x504F4C44) // "POLD"
	dynFormatVer = uint16(4)

	dynFlagNoFallback  = 1 << 0
	dynFlagHasMeasures = 1 << 1
	dynFlagNoExpSearch = 1 << 2
)

// MarshalBinary serialises the complete dynamic state — options (fallback
// setting included), raw data, delta buffer, and the fitted base — in the
// versioned POLD format, so RestoreDynamic can reconstruct an equivalent
// index without re-fitting. It reads one immutable snapshot and takes no
// lock: concurrent writers are never blocked and the buffer survives.
//
// The blob is not compatible with Index1D.UnmarshalBinary (the static
// format has no room for the buffer or the raw data); Index1D reports a
// descriptive error when handed one.
func (d *Dynamic1D) MarshalBinary() ([]byte, error) {
	st := d.state.Load()
	baseBlob, err := st.base.MarshalBinary()
	if err != nil {
		return nil, err
	}
	flags := uint8(0)
	if d.opt.NoFallback {
		flags |= dynFlagNoFallback
	}
	hasMeasures := d.agg != Count
	if hasMeasures {
		flags |= dynFlagHasMeasures
	}
	if d.opt.NoExpSearch {
		flags |= dynFlagNoExpSearch
	}
	var buf bytes.Buffer
	buf.Grow(64 + 8*(len(st.keys)+len(st.measures)+2*st.bufferLen()) + len(baseBlob))
	w := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w(magicDyn)
	w(dynFormatVer)
	w(uint8(d.agg))
	w(flags)
	w(uint8(d.opt.Backend))
	w(uint8(d.opt.Encoding))
	w(uint32(d.opt.Degree))
	w(uint32(max(d.opt.Parallelism, 0)))
	w(d.opt.Delta)
	w(d.RebuildFraction)
	w(uint64(len(st.keys)))
	writeFloatSlice(&buf, st.keys)
	if hasMeasures {
		writeFloatSlice(&buf, st.measures)
	}
	for _, r := range []run{st.main, st.tail} {
		w(uint64(len(r.keys)))
		writeFloatSlice(&buf, r.keys)
		writeFloatSlice(&buf, r.vals)
	}
	w(uint64(len(baseBlob)))
	buf.Write(baseBlob)
	return buf.Bytes(), nil
}

// RestoreDynamic reconstructs a Dynamic1D from a blob produced by
// Dynamic1D.MarshalBinary. The restored index is fully operational: the
// delta buffer, options (including the exact-fallback setting, rebuilt from
// the raw data when enabled), and rebuild threshold all survive, so every
// query — absolute, relative, batched — answers exactly as it did on the
// index that was marshalled. Corrupt or truncated blobs are rejected with
// an error wrapping ErrBadFormat; RestoreDynamic never panics on garbage.
func RestoreDynamic(data []byte) (*Dynamic1D, error) {
	r := bytes.NewReader(data)
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var m uint32
	var ver uint16
	if err := rd(&m); err != nil || m != magicDyn {
		if m == magic1D || m == magic2D {
			return nil, fmt.Errorf("%w: static index blob (use Index1D/Index2D UnmarshalBinary)", ErrBadFormat)
		}
		return nil, fmt.Errorf("%w: magic", ErrBadFormat)
	}
	if err := rd(&ver); err != nil || ver < 2 || ver > dynFormatVer {
		return nil, fmt.Errorf("%w: dynamic format version", ErrBadFormat)
	}
	var aggB, flags, backend, encMode uint8
	var degree, par uint32
	var delta, rebuildFrac float64
	var n uint64
	if err := firstErr(rd(&aggB), rd(&flags), rd(&backend)); err != nil {
		return nil, fmt.Errorf("%w: dynamic header", ErrBadFormat)
	}
	if ver >= 3 {
		if err := rd(&encMode); err != nil {
			return nil, fmt.Errorf("%w: dynamic header", ErrBadFormat)
		}
		if enc := Encoding(encMode); enc != EncAuto && !enc.valid() {
			return nil, fmt.Errorf("%w: encoding mode %d", ErrBadFormat, encMode)
		}
	}
	if err := firstErr(rd(&degree), rd(&par),
		rd(&delta), rd(&rebuildFrac), rd(&n)); err != nil {
		return nil, fmt.Errorf("%w: dynamic header", ErrBadFormat)
	}
	if segment.Backend(backend) != segment.Exchange && segment.Backend(backend) != segment.DualLP {
		return nil, fmt.Errorf("%w: solver backend %d", ErrBadFormat, backend)
	}
	agg := Agg(aggB)
	if agg < Count || agg > Max {
		return nil, fmt.Errorf("%w: aggregate %d", ErrBadFormat, aggB)
	}
	hasMeasures := flags&dynFlagHasMeasures != 0
	if hasMeasures != (agg != Count) {
		return nil, fmt.Errorf("%w: measures flag inconsistent with aggregate", ErrBadFormat)
	}
	if degree < 1 || degree > 64 {
		return nil, fmt.Errorf("%w: degree %d", ErrBadFormat, degree)
	}
	if !(delta > 0) || math.IsInf(delta, 0) {
		return nil, fmt.Errorf("%w: delta %g", ErrBadFormat, delta)
	}
	if !(rebuildFrac > 0) || math.IsInf(rebuildFrac, 0) {
		return nil, fmt.Errorf("%w: rebuild fraction %g", ErrBadFormat, rebuildFrac)
	}
	// A record is at least 8 bytes; reject counts the blob cannot hold
	// before allocating (mirrors the Index1D segment-count guard).
	if n == 0 || n > uint64(len(data))/8+1 {
		return nil, fmt.Errorf("%w: %d records", ErrBadFormat, n)
	}
	keys, err := readFloats(r, int(n), "keys")
	if err != nil {
		return nil, err
	}
	if err := checkSortedFinite(keys, "keys"); err != nil {
		return nil, err
	}
	var measures []float64
	if hasMeasures {
		if measures, err = readFloats(r, int(n), "measures"); err != nil {
			return nil, err
		}
		for _, v := range measures {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("%w: NaN measure", ErrBadFormat)
			}
		}
	} else {
		measures = make([]float64, n)
	}
	st := &dynState{keys: keys, measures: measures}
	runs := []*run{&st.main}
	if ver >= 4 {
		runs = append(runs, &st.tail)
	}
	for _, into := range runs {
		rk, rv, err := readRun(r, len(data))
		if err != nil {
			return nil, err
		}
		// The runs must stay disjoint from the base keys and from each
		// other, or the first merge would violate the distinct-key
		// invariant.
		for _, k := range rk {
			if st.holds(k) {
				return nil, fmt.Errorf("%w: buffered key %g is held twice", ErrBadFormat, k)
			}
		}
		*into = newRun(agg, rk, rv)
	}
	var baseLen uint64
	if err := rd(&baseLen); err != nil {
		return nil, fmt.Errorf("%w: base blob length", ErrBadFormat)
	}
	if baseLen == 0 || baseLen > uint64(r.Len()) {
		return nil, fmt.Errorf("%w: base blob length %d with %d bytes left", ErrBadFormat, baseLen, r.Len())
	}
	baseBlob := make([]byte, baseLen)
	if _, err := r.Read(baseBlob); err != nil {
		return nil, fmt.Errorf("%w: base blob", ErrBadFormat)
	}
	base := &Index1D{}
	if err := base.UnmarshalBinary(baseBlob); err != nil {
		return nil, err
	}
	if base.agg != agg {
		return nil, fmt.Errorf("%w: base aggregate %v, dynamic header %v", ErrBadFormat, base.agg, agg)
	}
	if base.n != int(n) || base.keyLo != keys[0] || base.keyHi != keys[n-1] {
		return nil, fmt.Errorf("%w: base index disagrees with raw data", ErrBadFormat)
	}
	opt := Options{
		Degree: int(degree), Delta: delta,
		Backend:     segment.Backend(backend),
		Encoding:    Encoding(encMode),
		NoExpSearch: flags&dynFlagNoExpSearch != 0,
		NoFallback:  flags&dynFlagNoFallback != 0, Parallelism: int(par),
	}
	if !opt.NoFallback {
		if err := attachFallback(base, keys, measures); err != nil {
			return nil, err
		}
	}
	d := &Dynamic1D{agg: agg, opt: opt, RebuildFraction: rebuildFrac}
	st.base = base
	d.state.Store(st)
	//lint:ignore lockguard d is still private to this restore function; no other goroutine can hold a reference yet
	d.rebuilds = 1
	return d, nil
}

// readRun reads one buffer run: a record count, then sorted finite keys
// and their NaN-free measures.
func readRun(r *bytes.Reader, blobLen int) (keys, vals []float64, err error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, nil, fmt.Errorf("%w: buffer length", ErrBadFormat)
	}
	if n > uint64(blobLen)/8+1 {
		return nil, nil, fmt.Errorf("%w: %d buffered records", ErrBadFormat, n)
	}
	if keys, err = readFloats(r, int(n), "buffer keys"); err != nil {
		return nil, nil, err
	}
	if err := checkSortedFinite(keys, "buffer keys"); err != nil {
		return nil, nil, err
	}
	if vals, err = readFloats(r, int(n), "buffer measures"); err != nil {
		return nil, nil, err
	}
	for _, v := range vals {
		if math.IsNaN(v) {
			return nil, nil, fmt.Errorf("%w: NaN buffer measure", ErrBadFormat)
		}
	}
	return keys, vals, nil
}

// writeFloatSlice appends vals in little-endian without the per-element
// interface boxing of binary.Write — the arrays dominate snapshot cost.
func writeFloatSlice(buf *bytes.Buffer, vals []float64) {
	var scratch [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		buf.Write(scratch[:])
	}
}

func readFloats(r *bytes.Reader, n int, what string) ([]float64, error) {
	raw := make([]byte, 8*n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("%w: %s", ErrBadFormat, what)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out, nil
}

func checkSortedFinite(keys []float64, what string) error {
	for i, k := range keys {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return fmt.Errorf("%w: non-finite %s", ErrBadFormat, what)
		}
		if i > 0 && k <= keys[i-1] {
			return fmt.Errorf("%w: %s not strictly increasing", ErrBadFormat, what)
		}
	}
	return nil
}

func prefixSums(vals []float64) []float64 {
	if len(vals) == 0 {
		return nil
	}
	pre := make([]float64, len(vals))
	run := 0.0
	for i, v := range vals {
		run += v
		pre[i] = run
	}
	return pre
}

// attachFallback reconstructs the exact structures a fallback-enabled build
// would have produced, mirroring buildCumulative/buildExtremum: COUNT uses
// unit measures, MIN negates (the index stores MIN as MAX over negated
// measures and un-negates on the way out).
func attachFallback(ix *Index1D, keys, measures []float64) error {
	switch ix.agg {
	case Count:
		arr, err := kca.NewCount(keys)
		if err != nil {
			return err
		}
		ix.exactCF = arr
	case Sum:
		arr, err := kca.New(keys, measures)
		if err != nil {
			return err
		}
		ix.exactCF = arr
	case Max:
		tree, err := artree.NewMaxTree(keys, measures, artree.Max)
		if err != nil {
			return err
		}
		ix.exactExt = tree
	case Min:
		negated := make([]float64, len(measures))
		for i, m := range measures {
			negated[i] = -m
		}
		tree, err := artree.NewMaxTree(keys, negated, artree.Max)
		if err != nil {
			return err
		}
		ix.exactExt = tree
	}
	return nil
}
