package polyfit

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// newDynamic builds an insertable index through New.
func newDynamic(spec Spec, opts ...Option) (*dynamicIndex, error) {
	ix, err := New(spec, append(opts, WithDynamic())...)
	if err != nil {
		return nil, err
	}
	return ix.(*dynamicIndex), nil
}

// newDynamicCount builds an insertable COUNT index over keys.
func newDynamicCount(keys []float64, opts ...Option) (*dynamicIndex, error) {
	return newDynamic(Spec{Agg: Count, Keys: keys}, opts...)
}

// TestDynamicCountEndToEnd checks dynamic COUNT, SUM and MAX indexes while
// their buffers hold hundreds of records, whose keys lie between the
// base's. Every answer must be within its returned Bound, with endpoints
// drawn from all keys, from the buffered keys, and uniformly over the key
// domain.
func TestDynamicCountEndToEnd(t *testing.T) {
	const eps = 40.0
	tweet := data.GenTweet(3000, 61)
	hkiKeys, hkiVals := data.GenHKI(3000, 61)
	for _, spec := range []Spec{
		{Agg: Count, Keys: tweet},
		{Agg: Sum, Keys: hkiKeys, Measures: hkiVals},
		{Agg: Max, Keys: hkiKeys, Measures: hkiVals},
	} {
		t.Run(spec.Agg.String(), func(t *testing.T) {
			d, err := newDynamic(spec, WithMaxError(eps))
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := spec.Keys[0], spec.Keys[len(spec.Keys)-1]
			all := append([]float64(nil), spec.Keys...)
			vals := make([]float64, len(all))
			for i := range vals {
				vals[i] = 1
				if spec.Measures != nil {
					vals[i] = spec.Measures[i]
				}
			}
			var buffered []float64
			rng := rand.New(rand.NewSource(62))
			// 1,300 records: a full tail merged into main, and a tail.
			for i := 0; i < 1300; i++ {
				k, m := lo+rng.Float64()*(hi-lo), vals[rng.Intn(len(spec.Keys))]
				if err := d.Insert(k, m); err == nil {
					all, vals, buffered = append(all, k), append(vals, m), append(buffered, k)
				}
			}
			if d.BufferLen() != len(buffered) {
				t.Fatalf("buffer holds %d records, want all %d inserts", d.BufferLen(), len(buffered))
			}
			if d.Stats().Records != len(all) {
				t.Fatalf("Records = %d, want %d", d.Stats().Records, len(all))
			}
			endpoint := func(kind int) float64 {
				switch kind {
				case 0:
					return all[rng.Intn(len(all))]
				case 1:
					return buffered[rng.Intn(len(buffered))]
				}
				return lo + rng.Float64()*(hi-lo)
			}
			for q := 0; q < 900; q++ {
				l, u := endpoint(q%3), endpoint(q/3%3)
				if l > u {
					l, u = u, l
				}
				res, err := d.Query(Range{Lo: l, Hi: u})
				if err != nil {
					t.Fatal(err)
				}
				want, found := bruteForce(spec.Agg, all, vals, l, u)
				if res.Found != found {
					t.Fatalf("[%g, %g]: found %v, want %v", l, u, res.Found, found)
				}
				if found && math.Abs(res.Value-want) > res.Bound+1e-9*math.Abs(want) {
					t.Fatalf("[%g, %g]: |%g − %g| > Bound %g", l, u, res.Value, want, res.Bound)
				}
			}
			if st := d.Stats(); st.Segments < 1 {
				t.Errorf("bad stats %+v", st)
			}
		})
	}
}

// bruteForce aggregates the records exactly: COUNT/SUM over (l, u], MAX
// over [l, u].
func bruteForce(agg Agg, keys, vals []float64, l, u float64) (float64, bool) {
	if agg == Max {
		best, found := math.Inf(-1), false
		for i, k := range keys {
			if k >= l && k <= u && vals[i] > best {
				best, found = vals[i], true
			}
		}
		return best, found
	}
	sum := 0.0
	for i, k := range keys {
		if k > l && k <= u {
			sum += vals[i]
		}
	}
	return sum, true
}

func TestDynamicMaxEndToEnd(t *testing.T) {
	keys, measures := data.GenHKI(2000, 63)
	d, err := newDynamic(Spec{Agg: Max, Keys: keys, Measures: measures}, WithMaxError(100))
	if err != nil {
		t.Fatal(err)
	}
	// Insert a new global peak past the end of the series.
	peakKey := keys[len(keys)-1] + 100
	if err := d.Insert(peakKey, 99999); err != nil {
		t.Fatal(err)
	}
	whole := Range{Lo: keys[0], Hi: peakKey + 1}
	res, err := d.Query(whole)
	if err != nil || !res.Found {
		t.Fatalf("query: %v %v", err, res.Found)
	}
	if res.Value < 99999-100 {
		t.Errorf("inserted peak lost: %g", res.Value)
	}
	if err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if d.BufferLen() != 0 {
		t.Error("buffer survived rebuild")
	}
	res, _ = d.Query(whole)
	if res.Value < 99999-100 {
		t.Errorf("peak lost after rebuild: %g", res.Value)
	}
}

func TestDynamicOptionsValidation(t *testing.T) {
	if _, err := newDynamicCount(data.GenTweet(100, 64)); err != ErrBadOptions {
		t.Errorf("want ErrBadOptions, got %v", err)
	}
}

func TestDynamicQueryRel(t *testing.T) {
	keys := data.GenTweet(3000, 65)
	d, err := newDynamicCount(keys, WithDelta(50))
	if err != nil {
		t.Fatal(err)
	}
	all := append([]float64(nil), keys...)
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 300; i++ {
		k := -60 + rng.Float64()*135
		if err := d.Insert(k, 1); err == nil {
			all = append(all, k)
		}
	}
	const epsRel = 0.01
	for q := 0; q < 150; q++ {
		l := all[rng.Intn(len(all))]
		u := all[rng.Intn(len(all))]
		if l > u {
			l, u = u, l
		}
		res, err := d.QueryRel(Range{Lo: l, Hi: u}, epsRel)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, k := range all {
			if k > l && k <= u {
				want++
			}
		}
		if math.Abs(res.Value-want) > epsRel*want+1e-6 {
			t.Fatalf("|%g − %g| > %g·R (exact=%v)", res.Value, want, epsRel, res.Exact)
		}
	}
}

// WithFallback(false) is honored instead of being silently forced on: a
// fallback-free dynamic index answers absolute queries but returns
// ErrNoFallback when the relative gate cannot certify the bound.
func TestDynamicDisableFallbackHonored(t *testing.T) {
	keys := data.GenTweet(2000, 67)
	d, err := newDynamicCount(keys, WithDelta(50), WithFallback(false))
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.FallbackBytes != 0 {
		t.Errorf("DisableFallback ignored: %d fallback bytes", st.FallbackBytes)
	}
	if _, err := d.Query(Range{Lo: 10, Hi: 20}); err != nil {
		t.Errorf("absolute query: %v", err)
	}
	// An empty range can never pass the Lemma 3 gate.
	point := Range{Lo: keys[0], Hi: keys[0]}
	if _, err := d.QueryRel(point, 0.01); err != ErrNoFallback {
		t.Errorf("want ErrNoFallback, got %v", err)
	}
	// With the fallback built (the default), the same query succeeds.
	df, err := newDynamicCount(keys, WithDelta(50))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.QueryRel(point, 0.01); err != nil {
		t.Errorf("fallback path: %v", err)
	}
}

// Stats must account for the real delta-buffer footprint: keys, measures,
// and the prefix-aggregate array (24 B per buffered record), not 16 B.
func TestDynamicStatsBufferAccounting(t *testing.T) {
	keys := data.GenTweet(1500, 68)
	d, err := newDynamicCount(keys, WithMaxError(50))
	if err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	const n = 20
	for i := 0; i < n; i++ {
		if err := d.Insert(1e6+float64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	after := d.Stats()
	if got, want := after.IndexBytes-before.IndexBytes, 24*n; got != want {
		t.Errorf("buffer accounted as %d bytes for %d inserts, want %d", got, n, want)
	}
}

func TestDynamicQueryBatchMatchesSerial(t *testing.T) {
	keys, measures := data.GenHKI(4000, 69)
	d, err := newDynamic(Spec{Agg: Max, Keys: keys, Measures: measures}, WithMaxError(100))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(70))
	for i := 0; i < 50; i++ {
		d.Insert(keys[len(keys)-1]+1+rng.Float64()*1000, rng.Float64()*500) //nolint:errcheck
	}
	ranges := make([]Range, 400)
	lo, hi := keys[0], keys[len(keys)-1]+1001
	for i := range ranges {
		a, b := lo+rng.Float64()*(hi-lo), lo+rng.Float64()*(hi-lo)
		if a > b {
			a, b = b, a
		}
		ranges[i] = Range{Lo: a, Hi: b}
	}
	batch, err := d.QueryBatch(ranges)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		want, err := d.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Found != want.Found || (want.Found && batch[i].Value != want.Value) {
			t.Fatalf("range %d: batch (%g,%v), serial (%g,%v)",
				i, batch[i].Value, batch[i].Found, want.Value, want.Found)
		}
	}
}

func TestDynamicMarshalRoundTrip(t *testing.T) {
	keys := data.GenTweet(2000, 71)
	d, err := newDynamicCount(keys, WithMaxError(50))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Insert(1e6+float64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if d.BufferLen() != 10 {
		t.Errorf("MarshalBinary disturbed the buffer: %d", d.BufferLen())
	}
	if DetectBlob(blob) != BlobDynamic {
		t.Errorf("dynamic blob detected as %v", DetectBlob(blob))
	}
	opened, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	loaded := opened.(*dynamicIndex)
	if got, want := loaded.Stats().Records, d.Stats().Records; got != want {
		t.Errorf("loaded index has %d records, want %d", got, want)
	}
	if got := loaded.BufferLen(); got != 10 {
		t.Errorf("loaded buffer has %d inserts, want 10 (restore must keep the buffer a buffer)", got)
	}
	// Nothing is re-fitted on restore, so every answer agrees bit-for-bit.
	for _, q := range []Range{{Lo: 10, Hi: 1e7}, {Lo: -90, Hi: 90}, {Lo: 1e6 - 1, Hi: 1e6 + 4}, {Lo: 5, Hi: 5}} {
		want, _ := d.Query(q)
		got, err := loaded.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Query(%g,%g): loaded answers %+v, want %+v", q.Lo, q.Hi, got, want)
		}
	}
	// The fallback was enabled at build time, so the restored index must
	// serve relative-error queries too (the old format lost this).
	res, err := loaded.QueryRel(Range{Lo: 1e6 - 1, Hi: 1e6 + 4}, 0.01)
	if err != nil {
		t.Fatalf("QueryRel on restored index: %v", err)
	}
	if res.Value != 5 {
		t.Errorf("QueryRel counted %g buffered inserts, want 5", res.Value)
	}
	// A static index must refuse the dynamic blob with a useful error.
	if err := new(core.Index1D).UnmarshalBinary(blob); err == nil {
		t.Error("static UnmarshalBinary accepted a dynamic blob")
	}
}

func TestDynamicMarshalPreservesDisabledFallback(t *testing.T) {
	keys := data.GenTweet(1000, 72)
	d, err := newDynamicCount(keys, WithMaxError(50), WithFallback(false))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny range cannot pass the Lemma 3 gate, so this must surface
	// ErrNoFallback — the restored index honours WithFallback(false).
	if _, err := loaded.QueryRel(Range{Lo: keys[0], Hi: keys[0]}, 0.01); err != ErrNoFallback {
		t.Errorf("QueryRel on fallback-less restored index: %v, want ErrNoFallback", err)
	}
	if loaded.Stats().FallbackBytes != 0 {
		t.Errorf("restored fallback-less index reports %d fallback bytes", loaded.Stats().FallbackBytes)
	}
}

// TestDynamicConcurrentUse is the public-API race stress test: concurrent
// Insert, Query, QueryBatch, QueryRel, Stats, and Rebuild on one index.
// Run with -race.
func TestDynamicConcurrentUse(t *testing.T) {
	keys := data.GenTweet(3000, 73)
	const eps = 50.0
	d, err := newDynamicCount(keys, WithMaxError(eps))
	if err != nil {
		t.Fatal(err)
	}
	// attempted is bumped before Insert, inserted after it returns, so the
	// live record count is always within [inserted, attempted].
	var attempted, inserted atomic.Int64
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				attempted.Add(1)
				if err := d.Insert(rng.Float64()*1e6+1e3, 1); err == nil {
					inserted.Add(1)
				} else {
					attempted.Add(-1)
				}
			}
		}(int64(500 + g))
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 4; i++ {
			if err := d.Rebuild(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := float64(len(keys)) + float64(inserted.Load())
				res, err := d.Query(Range{Lo: -1e7, Hi: 1e7})
				if err != nil || !res.Found {
					t.Errorf("query: %v %v", err, res.Found)
					return
				}
				v := res.Value
				ceil := float64(len(keys)) + float64(attempted.Load())
				if v < floor-eps-1e-6 || v > ceil+eps+1e-6 {
					t.Errorf("count %g outside [%g, %g] ± ε", v, floor, ceil)
					return
				}
				switch rng.Intn(3) {
				case 0:
					if _, err := d.QueryBatch([]Range{{Lo: -90, Hi: 90}, {Lo: 0, Hi: 1e6}}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := d.QueryRel(Range{Lo: -90, Hi: 90}, 0.01); err != nil {
						t.Error(err)
						return
					}
				default:
					d.Stats()
				}
			}
		}(int64(600 + g))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got, want := d.Stats().Records, len(keys)+int(inserted.Load()); got != want {
		t.Errorf("Records = %d, want %d", got, want)
	}
}
