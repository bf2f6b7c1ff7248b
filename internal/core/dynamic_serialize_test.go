package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/segment"
)

// buildDynFixture constructs a dynamic index of the given aggregate with a
// non-empty delta buffer, plus the query ranges used for equivalence checks.
func buildDynFixture(t *testing.T, agg Agg, noFallback bool) (*Dynamic1D, []Range) {
	t.Helper()
	keys, vals := genDataset(1500, 91+int64(agg))
	d, err := NewDynamic(agg, keys, vals, Options{Delta: 25, NoFallback: noFallback})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	inserted := 0
	for inserted < 40 {
		if err := d.Insert(rng.NormFloat64()*9e4+13, rng.Float64()*10); err != nil {
			continue
		}
		inserted++
	}
	if d.BufferLen() == 0 {
		t.Fatal("fixture expected a non-empty buffer")
	}
	ranges := make([]Range, 64)
	for i := range ranges {
		l := rng.NormFloat64() * 1e5
		u := l + rng.Float64()*2e5
		ranges[i] = Range{Lo: l, Hi: u}
	}
	return d, ranges
}

// queriesAgree asserts got answers every probe bit-for-bit like want.
func queriesAgree(t *testing.T, want, got *Dynamic1D, ranges []Range) {
	t.Helper()
	sum := want.agg == Count || want.agg == Sum
	for _, r := range ranges {
		if sum {
			wv, werr := want.RangeSum(r.Lo, r.Hi)
			gv, gerr := got.RangeSum(r.Lo, r.Hi)
			if (werr == nil) != (gerr == nil) || wv != gv {
				t.Fatalf("RangeSum(%g,%g): want (%g,%v), got (%g,%v)", r.Lo, r.Hi, wv, werr, gv, gerr)
			}
		} else {
			wv, wok, werr := want.RangeExtremum(r.Lo, r.Hi)
			gv, gok, gerr := got.RangeExtremum(r.Lo, r.Hi)
			if wok != gok || wv != gv || (werr == nil) != (gerr == nil) {
				t.Fatalf("RangeExtremum(%g,%g): want (%g,%v), got (%g,%v)", r.Lo, r.Hi, wv, wok, gv, gok)
			}
		}
	}
	wb, werr := want.QueryBatch(ranges)
	gb, gerr := got.QueryBatch(ranges)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("QueryBatch errors diverge: %v vs %v", werr, gerr)
	}
	for i := range wb {
		if wb[i] != gb[i] {
			t.Fatalf("QueryBatch[%d]: want %+v, got %+v", i, wb[i], gb[i])
		}
	}
}

func TestDynamicRoundTripAllAggregates(t *testing.T) {
	for _, agg := range []Agg{Count, Sum, Min, Max} {
		for _, noFallback := range []bool{false, true} {
			name := agg.String()
			if noFallback {
				name += "/nofallback"
			}
			t.Run(name, func(t *testing.T) {
				d, ranges := buildDynFixture(t, agg, noFallback)
				blob, err := d.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if d.BufferLen() == 0 {
					t.Fatal("marshal disturbed the buffer")
				}
				got, err := RestoreDynamic(blob)
				if err != nil {
					t.Fatal(err)
				}
				if got.Len() != d.Len() || got.BufferLen() != d.BufferLen() {
					t.Fatalf("restored %d records / %d buffered, want %d / %d",
						got.Len(), got.BufferLen(), d.Len(), d.BufferLen())
				}
				if got.Aggregate() != agg {
					t.Fatalf("restored aggregate %v, want %v", got.Aggregate(), agg)
				}
				if got.RebuildFraction != d.RebuildFraction {
					t.Fatalf("rebuild fraction %g, want %g", got.RebuildFraction, d.RebuildFraction)
				}
				if got.opt != d.opt {
					t.Fatalf("options %+v, want %+v", got.opt, d.opt)
				}
				queriesAgree(t, d, got, ranges)

				// Relative-error path: fallback setting must survive the trip.
				we, ge := d.Engine(), got.Engine()
				for _, r := range ranges[:16] {
					w, werr := we.QueryRel(context.Background(), r, 0.05)
					g, gerr := ge.QueryRel(context.Background(), r, 0.05)
					if w != g || (werr != nil) != (gerr != nil) || werr != nil && !errors.Is(gerr, werr) {
						t.Fatalf("QueryRel(%g,%g): want (%+v,%v), got (%+v,%v)", r.Lo, r.Hi, w, werr, g, gerr)
					}
				}
			})
		}
	}
}

// TestDynamicRoundTripStaysDynamic exercises the restored index as a live
// dynamic index: duplicate detection against base and buffer, fresh
// inserts, and a forced merge-rebuild (which needs the raw measures).
func TestDynamicRoundTripStaysDynamic(t *testing.T) {
	d, ranges := buildDynFixture(t, Sum, false)
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := RestoreDynamic(blob)
	if err != nil {
		t.Fatal(err)
	}
	baseKey := got.state.Load().keys[7]
	if err := got.Insert(baseKey, 1); err == nil {
		t.Fatal("restored index accepted a duplicate base key")
	}
	bufKey := got.state.Load().tail.keys[0]
	if err := got.Insert(bufKey, 1); err == nil {
		t.Fatal("restored index accepted a duplicate buffered key")
	}
	if err := got.Insert(9.75e5, 3); err != nil {
		t.Fatalf("insert into restored index: %v", err)
	}
	if err := d.Insert(9.75e5, 3); err != nil {
		t.Fatal(err)
	}
	// Rebuild both: the merged arrays are identical, and greedy fitting is
	// deterministic, so the two re-fit indexes must agree bit-for-bit.
	if err := got.Rebuild(); err != nil {
		t.Fatalf("rebuild of restored index: %v", err)
	}
	if err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got.BufferLen() != 0 {
		t.Fatalf("buffer not merged: %d", got.BufferLen())
	}
	queriesAgree(t, d, got, ranges)
}

// TestDynamicRoundTripSecondGeneration marshals a restored index again and
// checks the grand-child still agrees — the format must not decay.
func TestDynamicRoundTripSecondGeneration(t *testing.T) {
	d, ranges := buildDynFixture(t, Max, false)
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mid, err := RestoreDynamic(blob)
	if err != nil {
		t.Fatal(err)
	}
	blob2, err := mid.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := RestoreDynamic(blob2)
	if err != nil {
		t.Fatal(err)
	}
	queriesAgree(t, d, got, ranges)
}

// TestDynamicRoundTripNonDefaultOptions pins the full Options struct —
// solver backend and exp-search setting included — across the trip, so a
// restored index merge-rebuilds exactly like the original would have.
func TestDynamicRoundTripNonDefaultOptions(t *testing.T) {
	keys, vals := genDataset(400, 33)
	d, err := NewDynamic(Sum, keys, vals, Options{
		Delta: 40, Backend: segment.DualLP, NoExpSearch: true, Parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := RestoreDynamic(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.opt != d.opt {
		t.Fatalf("options %+v, want %+v", got.opt, d.opt)
	}
}

func TestRestoreDynamicRejectsCorruption(t *testing.T) {
	d, _ := buildDynFixture(t, Count, false)
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Every truncated prefix must be rejected, never panic. Step through
	// all short lengths near field boundaries and a sample elsewhere.
	for n := 0; n < len(blob); n++ {
		if n > 128 && n < len(blob)-128 && n%61 != 0 {
			continue
		}
		if _, err := RestoreDynamic(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	tamper := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), blob...)
		mutate(b)
		if _, err := RestoreDynamic(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	tamper("bad magic", func(b []byte) { b[0] ^= 0xFF })
	tamper("bad version", func(b []byte) { b[4] = 0x7F })
	tamper("bad aggregate", func(b []byte) { b[6] = 200 })
	tamper("inconsistent measures flag", func(b []byte) { b[7] ^= dynFlagHasMeasures })
	tamper("bad solver backend", func(b []byte) { b[8] = 17 })
	tamper("zero degree", func(b []byte) { b[9], b[10], b[11], b[12] = 0, 0, 0, 0 })
	tamper("absurd record count", func(b []byte) {
		for i := 33; i < 41; i++ {
			b[i] = 0xFF
		}
	})
	tamper("unsorted keys", func(b []byte) {
		// Swap the first two serialised keys (offset 41: header is 41 bytes).
		for i := 0; i < 8; i++ {
			b[41+i], b[49+i] = b[49+i], b[41+i]
		}
	})

	// A static blob is a different format, not a crash.
	static, err := d.state.Load().base.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreDynamic(static); err == nil {
		t.Error("RestoreDynamic accepted a static blob")
	}
	loaded := &Index1D{}
	if err := loaded.UnmarshalBinary(blob); err == nil {
		t.Error("Index1D.UnmarshalBinary accepted a dynamic blob")
	}
}

func TestDynamicInsertRejectsNonFinite(t *testing.T) {
	keys, vals := genDataset(300, 5)
	d, err := NewDynamic(Sum, keys, vals, Options{Delta: 25})
	if err != nil {
		t.Fatal(err)
	}
	before, err := d.RangeSum(math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := d.Insert(k, 1); err == nil {
			t.Errorf("Insert accepted key %g", k)
		}
	}
	if err := d.Insert(1e9, math.NaN()); err == nil {
		t.Error("Insert accepted a NaN measure")
	}
	if d.BufferLen() != 0 {
		t.Fatalf("rejected inserts landed in the buffer: %d", d.BufferLen())
	}
	after, err := d.RangeSum(math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("rejected inserts changed the total: %g -> %g", before, after)
	}
}

func TestDetectBlob(t *testing.T) {
	d, _ := buildDynFixture(t, Count, true)
	dyn, _ := d.MarshalBinary()
	static, _ := d.state.Load().base.MarshalBinary()
	if k := DetectBlob(dyn); k != BlobDynamic {
		t.Errorf("dynamic blob detected as %v", k)
	}
	if k := DetectBlob(static); k != BlobStatic1D {
		t.Errorf("static blob detected as %v", k)
	}
	if k := DetectBlob([]byte{1, 2}); k != BlobUnknown {
		t.Errorf("short blob detected as %v", k)
	}
}
