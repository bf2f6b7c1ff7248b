package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDynamicCountGuaranteeUnderInserts(t *testing.T) {
	keys, _ := genDataset(2000, 51)
	const epsAbs = 30.0
	d, err := NewDynamic(Count, keys, make([]float64, len(keys)), Options{Delta: DeltaForAbs(Count, epsAbs)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	all := append([]float64(nil), keys...)
	// Interleave inserts and guarantee checks.
	for round := 0; round < 10; round++ {
		for i := 0; i < 150; i++ {
			k := rng.NormFloat64()*9e4 + 17 // offset to dodge existing grid
			if err := d.Insert(k, 1); err != nil {
				continue // duplicate — fine
			}
			all = append(all, k)
		}
		for q := 0; q < 30; q++ {
			l := all[rng.Intn(len(all))]
			u := all[rng.Intn(len(all))]
			if l > u {
				l, u = u, l
			}
			got, err := d.RangeSum(l, u)
			if err != nil {
				t.Fatal(err)
			}
			want := 0.0
			for _, k := range all {
				if k > l && k <= u {
					want++
				}
			}
			if math.Abs(got-want) > epsAbs+1e-6 {
				t.Fatalf("round %d: |%g − %g| > εabs after %d inserts", round, got, want, d.Len()-2000)
			}
		}
	}
	if d.Len() != len(all) {
		t.Errorf("Len = %d, want %d", d.Len(), len(all))
	}
}

func TestDynamicRebuildTriggers(t *testing.T) {
	keys, _ := genDataset(1000, 53)
	d, err := NewDynamic(Count, keys, make([]float64, len(keys)), Options{Delta: 20})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rebuilds() != 1 {
		t.Fatalf("initial Rebuilds = %d", d.Rebuilds())
	}
	// Default threshold: max(64, n/2) = 500.
	rng := rand.New(rand.NewSource(54))
	inserted := 0
	for inserted < 600 {
		if err := d.Insert(rng.Float64()*1e6+1e7, 1); err == nil {
			inserted++
		}
	}
	if d.Rebuilds() < 2 {
		t.Errorf("rebuild did not trigger after %d inserts (buffer %d)", inserted, d.BufferLen())
	}
	if d.BufferLen() >= 500 {
		t.Errorf("buffer %d was not flushed", d.BufferLen())
	}
	if d.Base().Len() <= 1000 {
		t.Errorf("base was not merged: %d records", d.Base().Len())
	}
}

func TestDynamicMaxCombinesBuffer(t *testing.T) {
	keys := []float64{10, 20, 30, 40}
	vals := []float64{5, 7, 6, 4}
	d, err := NewDynamic(Max, keys, vals, Options{Degree: 1, Delta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// New global maximum lands in the buffer.
	if err := d.Insert(25, 100); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d.RangeExtremum(0, 50)
	if err != nil || !ok {
		t.Fatalf("query failed: %v %v", err, ok)
	}
	if v < 100-0.5 {
		t.Errorf("buffered max lost: %g", v)
	}
	// Buffer-only range.
	v, ok, _ = d.RangeExtremum(22, 28)
	if !ok || v < 100-0.5 {
		t.Errorf("buffer-only range = (%g,%v)", v, ok)
	}
	// Base-only range still works.
	v, ok, _ = d.RangeExtremum(10, 20)
	if !ok || math.Abs(v-7) > 0.5+1e-9 {
		t.Errorf("base-only range = (%g,%v), want ≈7", v, ok)
	}
}

func TestDynamicMinViaNegation(t *testing.T) {
	keys := []float64{1, 2, 3}
	vals := []float64{9, 8, 7}
	d, err := NewDynamic(Min, keys, vals, Options{Degree: 1, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(2.5, 1); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := d.RangeExtremum(0, 5)
	if !ok || v > 1+0.1+1e-9 {
		t.Errorf("dynamic MIN = (%g,%v), want ≈1", v, ok)
	}
}

func TestDynamicDuplicateRejected(t *testing.T) {
	keys := []float64{1, 2, 3}
	d, err := NewDynamic(Count, keys, []float64{1, 1, 1}, Options{Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(2, 1); err == nil {
		t.Error("duplicate base key accepted")
	}
	if err := d.Insert(9, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(9, 1); err == nil {
		t.Error("duplicate buffered key accepted")
	}
}

func TestDynamicRelativeQueries(t *testing.T) {
	keys, measures := genDataset(3000, 57)
	d, err := NewDynamic(Sum, keys, measures, Options{Delta: 50})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(58))
	all := append([]float64(nil), keys...)
	vals := append([]float64(nil), measures...)
	for i := 0; i < 120; i++ {
		k, m := rng.Float64()*2e6-5e5, rng.Float64()*100
		if err := d.Insert(k, m); err == nil {
			all = append(all, k)
			vals = append(vals, m)
		}
	}
	const epsRel = 0.01
	for q := 0; q < 100; q++ {
		l := all[rng.Intn(len(all))]
		u := all[rng.Intn(len(all))]
		if l > u {
			l, u = u, l
		}
		res, err := d.Engine().QueryRel(context.Background(), Range{Lo: l, Hi: u}, epsRel)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Value
		want := 0.0
		for i, k := range all {
			if k > l && k <= u {
				want += vals[i]
			}
		}
		if math.Abs(got-want) > epsRel*want+1e-6 {
			t.Fatalf("rel sum |%g − %g| > %g·R", got, want, epsRel)
		}
	}
	// No fallback → ErrNoFallback on a range the gate cannot certify.
	dn, err := NewDynamic(Sum, keys, measures, Options{Delta: 50, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dn.Engine().QueryRel(context.Background(), Range{Lo: keys[0], Hi: keys[0]}, epsRel); err != ErrNoFallback {
		t.Errorf("want ErrNoFallback, got %v", err)
	}
}

func TestDynamicExtremumRel(t *testing.T) {
	keys, measures := genDataset(2000, 59)
	for i := range measures {
		measures[i] = math.Abs(measures[i]) + 1 // rel guarantee needs positives
	}
	d, err := NewDynamic(Max, keys, measures, Options{Delta: 30})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(60))
	all := append([]float64(nil), keys...)
	vals := append([]float64(nil), measures...)
	for i := 0; i < 100; i++ {
		k, m := rng.Float64()*2e6-5e5, rng.Float64()*200+1
		if err := d.Insert(k, m); err == nil {
			all = append(all, k)
			vals = append(vals, m)
		}
	}
	const epsRel = 0.05
	for q := 0; q < 100; q++ {
		l := all[rng.Intn(len(all))]
		u := all[rng.Intn(len(all))]
		if l > u {
			l, u = u, l
		}
		res, err := d.Engine().QueryRel(context.Background(), Range{Lo: l, Hi: u}, epsRel)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := res.Value, res.Found
		want, found := math.Inf(-1), false
		for i, k := range all {
			if k >= l && k <= u && vals[i] > want {
				want, found = vals[i], true
			}
		}
		if ok != found {
			t.Fatalf("found=%v, want %v for [%g,%g]", ok, found, l, u)
		}
		if found && math.Abs(got-want) > epsRel*want+1e-6 {
			t.Fatalf("rel max |%g − %g| > %g·R", got, want, epsRel)
		}
	}
}

func TestDynamicBufferFootprint(t *testing.T) {
	keys, _ := genDataset(1000, 65)
	d, err := NewDynamic(Sum, keys, make([]float64, len(keys)), Options{Delta: 20})
	if err != nil {
		t.Fatal(err)
	}
	if d.BufferSizeBytes() != 0 {
		t.Errorf("fresh index buffer bytes = %d", d.BufferSizeBytes())
	}
	for i := 0; i < 10; i++ {
		if err := d.Insert(2e7+float64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	// COUNT/SUM buffers store keys, measures, and prefix sums: 24 B/record.
	if got, want := d.BufferSizeBytes(), 24*10; got != want {
		t.Errorf("buffer bytes = %d, want %d", got, want)
	}
	v := d.View()
	if v.BufferLen != 10 || v.BufferBytes != 240 || v.Records != 1010 || v.Base == nil {
		t.Errorf("bad view %+v", v)
	}
}

// TestDynamicConcurrentStress hammers one index from inserter, reader,
// batch-reader, and rebuilder goroutines; run with -race. Readers assert
// the absolute guarantee against the monotonically growing record count.
func TestDynamicConcurrentStress(t *testing.T) {
	keys, _ := genDataset(2000, 67)
	const epsAbs = 30.0
	d, err := NewDynamic(Count, keys, make([]float64, len(keys)), Options{Delta: DeltaForAbs(Count, epsAbs)})
	if err != nil {
		t.Fatal(err)
	}
	// Window covering every base key and every possible inserted key.
	lo, hi := math.Min(keys[0], -2e6)-1, math.Max(keys[len(keys)-1], 2e6)+1
	// attempted is bumped before an insert, inserted after it returns, so
	// at any instant the live record count is within [inserted, attempted]
	// — sound bounds for readers even mid-publish. Odd writers insert
	// 8-record batches, even ones one record at a time.
	var attempted, inserted atomic.Int64
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(seed int64, batch int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			keys := make([]float64, batch)
			for i := 0; i < 400; i += batch {
				for j := range keys {
					keys[j] = rng.Float64()*4e6 - 2e6
				}
				attempted.Add(int64(batch))
				for _, err := range d.InsertBatch(keys, nil) {
					if err == nil {
						inserted.Add(1)
					} else {
						attempted.Add(-1)
					}
				}
			}
		}(int64(100+g), 1+7*(g%2))
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 5; i++ {
			if err := d.Rebuild(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
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
				// Full-domain count must be within εabs of the live total,
				// which only grows; a torn read would violate the bound.
				floor := float64(2000 + inserted.Load())
				got, err := d.RangeSum(lo, hi)
				if err != nil {
					t.Error(err)
					return
				}
				ceil := float64(2000 + attempted.Load())
				if got < floor-epsAbs-1e-6 || got > ceil+epsAbs+1e-6 {
					t.Errorf("concurrent count %g outside [%g, %g] ± εabs", got, floor, ceil)
					return
				}
				if rng.Intn(4) == 0 {
					if _, err := d.QueryBatch([]Range{{lo, hi}, {0, 1e5}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(200 + g))
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got, want := d.Len(), 2000+int(inserted.Load()); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	final, err := d.RangeSum(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(final-float64(d.Len())) > epsAbs+1e-6 {
		t.Errorf("final count %g vs %d records", final, d.Len())
	}
}

func TestDynamicForcedRebuildKeepsAnswers(t *testing.T) {
	keys, measures := genDataset(1500, 55)
	d, err := NewDynamic(Sum, keys, measures, Options{Delta: 500})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(56))
	for i := 0; i < 50; i++ {
		d.Insert(rng.Float64()*1e6+2e7, rng.Float64()*10) //nolint:errcheck
	}
	before, _ := d.RangeSum(keys[10], keys[1400])
	if err := d.Rebuild(); err != nil {
		t.Fatal(err)
	}
	after, _ := d.RangeSum(keys[10], keys[1400])
	if math.Abs(before-after) > 2*500+1e-6 {
		t.Errorf("rebuild moved the answer too far: %g vs %g", before, after)
	}
	if d.BufferLen() != 0 {
		t.Errorf("buffer not flushed by forced rebuild")
	}
}

// TestRunExtremumMatchesScan checks a buffer run's MIN/MAX — partial
// blocks scanned, whole blocks from the sparse table — against a scan of
// every record in the range: empty ranges (outside the run, or between two
// adjacent keys), single records, ranges inside one block, ranges across
// block edges, and the whole run.
func TestRunExtremumMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1500} {
		keys, vals := make([]float64, n), make([]float64, n)
		k := 0.0
		for i := range keys {
			k += 1 + rng.Float64()
			keys[i], vals[i] = k, rng.NormFloat64()*100
		}
		for _, agg := range []Agg{Min, Max} {
			r := newRun(agg, keys, vals)
			check := func(lq, uq float64) {
				t.Helper()
				want, found := 0.0, false
				for i, k := range keys {
					if k >= lq && k <= uq && (!found || agg == Max && vals[i] > want || agg == Min && vals[i] < want) {
						want, found = vals[i], true
					}
				}
				got, ok := r.extremum(extSign(agg), lq, uq)
				if ok != found || found && got != want {
					t.Fatalf("%v n=%d [%g, %g]: got (%g, %v), want (%g, %v)", agg, n, lq, uq, got, ok, want, found)
				}
			}
			check(-2, -1)
			check(k+1, k+2)
			check(math.Inf(-1), math.Inf(1))
			check(0, k)
			for i := 0; i+1 < n; i++ {
				check(keys[i]+1e-9, keys[i+1]-1e-9) // between adjacent keys
			}
			for i := 0; i < n; i++ {
				check(keys[i], keys[i])
			}
			for q := 0; q < 2000 && n > 0; q++ {
				a := rng.Intn(n)
				b := min(n-1, a+rng.Intn(3*runBlock))
				if q%2 == 0 {
					b = a + rng.Intn(n-a)
				}
				lq, uq := keys[a], keys[b]
				if q%3 == 0 {
					lq -= 0.5 // mid-gap endpoints
					uq += 0.5
				}
				check(lq, uq)
			}
		}
	}
}

// TestInsertBatchFailedRebuild: when a merge-rebuild fails, the record
// that triggered it is dropped with the build's error, the records before
// it stay buffered, and every later record retries the rebuild — in a
// batch exactly as one Insert at a time.
func TestInsertBatchFailedRebuild(t *testing.T) {
	keys, vals := genDataset(100, 73)
	var dyns [2]*Dynamic1D
	for i := range dyns {
		d, err := NewDynamic(Sum, keys, vals, Options{Delta: 20})
		if err != nil {
			t.Fatal(err)
		}
		d.opt.Delta = -1 // every re-fit now fails validation
		dyns[i] = d
	}
	recs, ms := make([]float64, 70), make([]float64, 70)
	for i := range recs {
		recs[i], ms[i] = 1e7+float64(i), 0.5
	}
	var want []error
	for i := range recs {
		want = append(want, dyns[0].Insert(recs[i], ms[i]))
	}
	got := dyns[1].InsertBatch(recs, ms)
	for i := range recs {
		// Threshold max(64, 100/2) = 64: records 0–62 buffer, the rest fail.
		if (want[i] == nil) != (i < 63) || (got[i] == nil) != (i < 63) {
			t.Fatalf("record %d: Insert %v, InsertBatch %v", i, want[i], got[i])
		}
	}
	for _, d := range dyns {
		if d.BufferLen() != 63 || d.Len() != 163 || d.Rebuilds() != 1 {
			t.Fatalf("buffer %d, records %d, rebuilds %d; want 63, 163, 1", d.BufferLen(), d.Len(), d.Rebuilds())
		}
	}
	wb, _ := dyns[0].MarshalBinary()
	gb, _ := dyns[1].MarshalBinary()
	if !bytes.Equal(wb, gb) {
		t.Fatal("state after InsertBatch differs from one Insert per record")
	}
}
