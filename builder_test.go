package polyfit_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	polyfit "repro"
)

// builderDataset builds n distinct, irregularly spaced keys with positive
// measures (positive so the SUM relative-error lemma applies).
func builderDataset(n int, seed int64) (keys, measures []float64) {
	rng := rand.New(rand.NewSource(seed))
	keys = make([]float64, n)
	measures = make([]float64, n)
	k := 0.0
	for i := range keys {
		k += 0.25 + rng.Float64()*3
		keys[i] = k
		measures[i] = 1 + rng.Float64()*9
	}
	return keys, measures
}

func bruteSum(keys, measures []float64, lo, hi float64) float64 {
	s := 0.0
	for i, k := range keys {
		if k > lo && k <= hi {
			s += measures[i]
		}
	}
	return s
}

func bruteMax(keys, measures []float64, lo, hi float64) (float64, bool) {
	best, found := math.Inf(-1), false
	for i, k := range keys {
		if k >= lo && k <= hi && measures[i] > best {
			best, found = measures[i], true
		}
	}
	return best, found
}

// layoutOptions enumerates the four layouts the builder can produce.
func layoutOptions() map[string][]polyfit.Option {
	return map[string][]polyfit.Option{
		"static":          nil,
		"dynamic":         {polyfit.WithDynamic()},
		"sharded":         {polyfit.WithShards(5)},
		"sharded-dynamic": {polyfit.WithDynamic(), polyfit.WithShards(5)},
	}
}

// TestBuilderBoundOracle is the oracle check behind the redesign's promise:
// Result.Bound is populated on EVERY variant — static and dynamic included,
// not just sharded — and the observed error never exceeds it, for Query,
// QueryRel, and QueryBatch alike (SUM two-sided at workload endpoints; MAX
// on the covering side, per DESIGN.md §3.3).
func TestBuilderBoundOracle(t *testing.T) {
	keys, measures := builderDataset(4000, 99)
	rng := rand.New(rand.NewSource(100))
	for layout, extra := range layoutOptions() {
		sum, err := polyfit.New(polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: measures},
			append([]polyfit.Option{polyfit.WithMaxError(50)}, extra...)...)
		if err != nil {
			t.Fatalf("%s sum: %v", layout, err)
		}
		mx, err := polyfit.New(polyfit.Spec{Agg: polyfit.Max, Keys: keys, Measures: measures},
			append([]polyfit.Option{polyfit.WithMaxError(4)}, extra...)...)
		if err != nil {
			t.Fatalf("%s max: %v", layout, err)
		}
		var ranges []polyfit.Range
		for q := 0; q < 300; q++ {
			i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
			if i > j {
				i, j = j, i
			}
			ranges = append(ranges, polyfit.Range{Lo: keys[i], Hi: keys[j]})
		}
		sumBatch, err := sum.QueryBatch(ranges)
		if err != nil {
			t.Fatal(err)
		}
		maxBatch, err := mx.QueryBatch(ranges)
		if err != nil {
			t.Fatal(err)
		}
		for qi, r := range ranges {
			exact := bruteSum(keys, measures, r.Lo, r.Hi)
			res, err := sum.Query(r)
			if err != nil {
				t.Fatal(err)
			}
			if res.Bound <= 0 {
				t.Fatalf("%s sum Query(%v): Bound %g not populated", layout, r, res.Bound)
			}
			tol := 1e-9 * (1 + math.Abs(exact))
			if e := math.Abs(res.Value - exact); e > res.Bound+tol {
				t.Fatalf("%s sum (%g,%g]: est %g exact %g exceeds bound %g", layout, r.Lo, r.Hi, res.Value, exact, res.Bound)
			}
			if b := sumBatch[qi]; b.Bound < res.Bound-tol || math.Abs(b.Value-exact) > b.Bound+tol {
				t.Fatalf("%s sum batch (%g,%g]: %+v vs single %+v (exact %g)", layout, r.Lo, r.Hi, b, res, exact)
			}
			rel, err := sum.QueryRel(r, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if rel.Exact && rel.Bound != 0 {
				t.Fatalf("%s sum QueryRel exact path: Bound %g, want 0", layout, rel.Bound)
			}
			if !rel.Exact && rel.Bound <= 0 {
				t.Fatalf("%s sum QueryRel approx path: Bound %g not populated", layout, rel.Bound)
			}
			if math.Abs(rel.Value-exact) > rel.Bound+0.01*exact+tol {
				t.Fatalf("%s sum QueryRel (%g,%g]: est %g exact %g bound %g", layout, r.Lo, r.Hi, rel.Value, exact, rel.Bound)
			}

			// MAX: covering side — the index must not miss the true extremum
			// by more than the bound.
			eMax, found := bruteMax(keys, measures, r.Lo, r.Hi)
			mres, err := mx.Query(r)
			if err != nil {
				t.Fatal(err)
			}
			if mres.Bound <= 0 {
				t.Fatalf("%s max Query(%v): Bound %g not populated", layout, r, mres.Bound)
			}
			if found && mres.Found && mres.Value < eMax-mres.Bound-tol {
				t.Fatalf("%s max [%g,%g]: est %g misses exact %g beyond bound %g", layout, r.Lo, r.Hi, mres.Value, eMax, mres.Bound)
			}
			if mb := maxBatch[qi]; mb.Found && found && mb.Value < eMax-mb.Bound-tol {
				t.Fatalf("%s max batch [%g,%g]: %+v misses exact %g", layout, r.Lo, r.Hi, mb, eMax)
			}
		}
		// Empty (inverted) COUNT/SUM ranges answer exactly 0 with Bound 0 on
		// every query path, and the relative path needs no fallback for them.
		empty := polyfit.Range{Lo: 10, Hi: 5}
		res, err := sum.Query(empty)
		if err != nil || res.Value != 0 || res.Bound != 0 {
			t.Fatalf("%s sum empty range: %+v (%v), want value 0 bound 0", layout, res, err)
		}
		res, err = sum.QueryRel(empty, 0.01)
		if err != nil || res.Value != 0 || res.Bound != 0 || res.Exact {
			t.Fatalf("%s sum empty range QueryRel: %+v (%v), want value 0 bound 0 not exact", layout, res, err)
		}
		batch, err := sum.QueryBatch([]polyfit.Range{ranges[0], empty})
		if err != nil || batch[1].Value != 0 || batch[1].Bound != 0 || batch[1].Exact {
			t.Fatalf("%s sum empty range QueryBatch: %+v (%v), want value 0 bound 0 not exact", layout, batch, err)
		}
	}
}

// TestQueryRelBoundSymmetry pins that every layout populates
// Result.Bound on QueryRel the same way — the δ-derived guarantee on the
// approximate path (2δ per touched shard for COUNT), 0 on the exact path
// and on an inverted range.
func TestQueryRelBoundSymmetry(t *testing.T) {
	keys, _ := builderDataset(3000, 7)
	// Small enough that the Lemma 3 gate A ≥ 2δ·m(1+1/εrel) passes on the
	// wide range below even across five shards (A ≈ 2890 ≫ 5·8·21).
	const eps, epsRel = 8.0, 0.05
	wide := polyfit.Range{Lo: keys[10], Hi: keys[2900]} // approximate gate passes
	tiny := polyfit.Range{Lo: keys[0] - 2, Hi: keys[0] - 1}
	for layout, extra := range layoutOptions() {
		ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys},
			append([]polyfit.Option{polyfit.WithMaxError(eps)}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		touched := 1 // shards the wide range overlaps
		if sh, ok := ix.(polyfit.Sharder); ok {
			for _, b := range sh.Bounds() {
				if wide.Lo < b && b <= wide.Hi {
					touched++
				}
			}
		}
		res, err := ix.QueryRel(wide, epsRel)
		if err != nil {
			t.Fatal(err)
		}
		if res.Exact {
			t.Fatalf("%s: wide range unexpectedly took the exact path", layout)
		}
		if want := eps * float64(touched); res.Bound != want { // 2δ = εabs per shard for COUNT
			t.Errorf("%s approximate QueryRel: Bound %g, want %g", layout, res.Bound, want)
		}
		res, err = ix.QueryRel(tiny, epsRel)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Exact {
			t.Fatalf("%s: empty range did not take the exact path", layout)
		}
		if res.Bound != 0 {
			t.Errorf("%s exact QueryRel: Bound %g, want 0", layout, res.Bound)
		}
		// An inverted range is empty: exactly 0 without the exact path.
		res, err = ix.QueryRel(polyfit.Range{Lo: wide.Hi, Hi: wide.Lo}, epsRel)
		if err != nil || res.Value != 0 || res.Exact || res.Bound != 0 {
			t.Errorf("%s inverted QueryRel: %+v (%v), want value 0 bound 0 not exact", layout, res, err)
		}
	}
}

// TestSentinelErrors drives errors.Is for every sentinel from every
// constructor and query path.
func TestSentinelErrors(t *testing.T) {
	keys, measures := builderDataset(500, 3)
	spec := polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: measures}

	for layout, extra := range layoutOptions() {
		// ErrBadOptions: no error budget.
		if _, err := polyfit.New(spec, extra...); !errors.Is(err, polyfit.ErrBadOptions) {
			t.Errorf("%s: no-eps build: got %v, want ErrBadOptions", layout, err)
		}
		opts := append([]polyfit.Option{polyfit.WithMaxError(10)}, extra...)
		// ErrEmptyKeys.
		if _, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count}, opts...); !errors.Is(err, polyfit.ErrEmptyKeys) {
			t.Errorf("%s: empty build: got %v, want ErrEmptyKeys", layout, err)
		}
		// ErrUnsortedKeys.
		bad := polyfit.Spec{Agg: polyfit.Count, Keys: []float64{3, 1, 2}}
		if _, err := polyfit.New(bad, opts...); !errors.Is(err, polyfit.ErrUnsortedKeys) {
			t.Errorf("%s: unsorted build: got %v, want ErrUnsortedKeys", layout, err)
		}
		ix, err := polyfit.New(spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// ErrInvalidRange: NaN endpoints on every query entry point, and a
		// non-positive relative error.
		nan := polyfit.Range{Lo: math.NaN(), Hi: 10}
		if _, err := ix.Query(nan); !errors.Is(err, polyfit.ErrInvalidRange) {
			t.Errorf("%s: NaN Query: got %v, want ErrInvalidRange", layout, err)
		}
		if _, err := ix.QueryRel(nan, 0.01); !errors.Is(err, polyfit.ErrInvalidRange) {
			t.Errorf("%s: NaN QueryRel: got %v, want ErrInvalidRange", layout, err)
		}
		if _, err := ix.QueryBatch([]polyfit.Range{{Lo: 1, Hi: 2}, nan}); !errors.Is(err, polyfit.ErrInvalidRange) {
			t.Errorf("%s: NaN QueryBatch: got %v, want ErrInvalidRange", layout, err)
		}
		if _, err := ix.QueryRel(polyfit.Range{Lo: 1, Hi: 2}, 0); !errors.Is(err, polyfit.ErrInvalidRange) {
			t.Errorf("%s: epsRel=0: got %v, want ErrInvalidRange", layout, err)
		}
		// ErrNoFallback: a fallback-free index whose gate cannot certify.
		bare, err := polyfit.New(spec, append(opts, polyfit.WithFallback(false))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bare.QueryRel(polyfit.Range{Lo: keys[0] - 3, Hi: keys[0] - 2}, 0.01); !errors.Is(err, polyfit.ErrNoFallback) {
			t.Errorf("%s: gate miss without fallback: got %v, want ErrNoFallback", layout, err)
		}
		// An inverted range is empty, so it needs no fallback: a
		// fallback-free MAX index answers it not found, on every layout.
		bareMax, err := polyfit.New(polyfit.Spec{Agg: polyfit.Max, Keys: keys, Measures: measures},
			append(opts, polyfit.WithFallback(false))...)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := bareMax.QueryRel(polyfit.Range{Lo: keys[9], Hi: keys[2]}, 0.01); err != nil || res.Found {
			t.Errorf("%s: inverted range without fallback: got %+v, %v, want not found", layout, res, err)
		}
		// ErrDuplicateKey on insertable layouts.
		if ins, ok := ix.(polyfit.Inserter); ok {
			if err := ins.Insert(keys[5], 1); !errors.Is(err, polyfit.ErrDuplicateKey) {
				t.Errorf("%s: duplicate insert: got %v, want ErrDuplicateKey", layout, err)
			}
		}
	}

	// WithDegree ignores non-positive values per the Option contract.
	if _, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys},
		polyfit.WithMaxError(10), polyfit.WithDegree(-3)); err != nil {
		t.Errorf("WithDegree(-3) should be a no-op, got %v", err)
	}

	// ErrAggMismatch from an unknown aggregate in the spec.
	if _, err := polyfit.New(polyfit.Spec{Agg: polyfit.Agg(9), Keys: keys}, polyfit.WithMaxError(1)); !errors.Is(err, polyfit.ErrAggMismatch) {
		t.Errorf("unknown aggregate: got %v, want ErrAggMismatch", err)
	}
	// ErrBadOptions identity (compared with ==, not only Is).
	if _, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys}); err != polyfit.ErrBadOptions {
		t.Errorf("no-eps build: got %v, want ErrBadOptions (identity)", err)
	}
	// 2D: NaN rectangles and non-positive epsRel wrap ErrInvalidRange; the
	// bound mirrors Lemma 6 (4δ = εabs).
	ix2, err := polyfit.NewCount2DIndex(keys, measures, polyfit.Options2D{EpsAbs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix2.Query(math.NaN(), 1, 0, 1); !errors.Is(err, polyfit.ErrInvalidRange) {
		t.Errorf("2D NaN Query: got %v, want ErrInvalidRange", err)
	}
	if _, err := ix2.QueryRel(0, 1, 0, 1, -1); !errors.Is(err, polyfit.ErrInvalidRange) {
		t.Errorf("2D epsRel<0: got %v, want ErrInvalidRange", err)
	}
	if res, err := ix2.Query(keys[0], keys[400], measures[0]-1, measures[0]+100); err != nil || res.Bound != 40 {
		t.Errorf("2D Query: bound %g (%v), want 40 (= 4δ = εabs)", res.Bound, err)
	}
}

// TestNonFiniteRecordsRejected: a NaN or infinite key or measure fails the
// build on every layout, and every insert, with ErrInvalidRecord, and a
// rejected insert leaves the answers as they were. COUNT ignores measures,
// at build and at insert alike.
func TestNonFiniteRecordsRejected(t *testing.T) {
	keys := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	whole := polyfit.Range{Lo: 0, Hi: 100}
	for layout, extra := range layoutOptions() {
		opts := append([]polyfit.Option{polyfit.WithMaxError(2)}, extra...)
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, agg := range []polyfit.Agg{polyfit.Sum, polyfit.Min, polyfit.Max} {
				ms := append([]float64(nil), ones...)
				ms[3] = bad
				if _, err := polyfit.New(polyfit.Spec{Agg: agg, Keys: keys, Measures: ms}, opts...); !errors.Is(err, polyfit.ErrInvalidRecord) {
					t.Errorf("%s %v: build with measure %g: got %v, want ErrInvalidRecord", layout, agg, bad, err)
				}
			}
			ks := append([]float64(nil), keys...)
			ks[7] = bad
			if _, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: ks}, opts...); !errors.Is(err, polyfit.ErrInvalidRecord) {
				t.Errorf("%s: build with key %g: got %v, want ErrInvalidRecord", layout, bad, err)
			}
			if _, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys, Measures: []float64{1, 1, 1, bad, 1, 1, 1, 1}}, opts...); err != nil {
				t.Errorf("%s: COUNT build with measure %g: %v", layout, bad, err)
			}
		}
		ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: ones}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ins, ok := ix.(polyfit.Inserter)
		if !ok {
			continue
		}
		before, err := ix.Query(whole)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := ins.Insert(10, bad); !errors.Is(err, polyfit.ErrInvalidRecord) {
				t.Errorf("%s: insert measure %g: got %v, want ErrInvalidRecord", layout, bad, err)
			}
			if err := ins.Insert(bad, 1); !errors.Is(err, polyfit.ErrInvalidRecord) {
				t.Errorf("%s: insert key %g: got %v, want ErrInvalidRecord", layout, bad, err)
			}
		}
		errs := ins.InsertBatch([]float64{11, 12, math.Inf(1)}, []float64{math.Inf(1), 1, 1})
		if !errors.Is(errs[0], polyfit.ErrInvalidRecord) || errs[1] != nil || !errors.Is(errs[2], polyfit.ErrInvalidRecord) {
			t.Errorf("%s: InsertBatch errors %v, want [invalid, nil, invalid]", layout, errs)
		}
		for i, err := range ins.InsertBatch([]float64{13, 14}, []float64{1}) {
			if !errors.Is(err, polyfit.ErrInvalidRecord) {
				t.Errorf("%s: InsertBatch with one measure for two keys: record %d got %v, want ErrInvalidRecord", layout, i, err)
			}
		}
		if after, err := ix.Query(whole); err != nil || after.Value != before.Value+1 || ins.BufferLen() != 1 {
			t.Errorf("%s: after one good insert the sum moved %g → %g (%v), buffer %d", layout, before.Value, after.Value, err, ins.BufferLen())
		}
	}
}

// TestBuilderLayoutCapabilities pins which capabilities each layout
// exposes, and that an unsharded index answers exactly like a one-shard
// sharded one (both are the same engine's one-shard case).
func TestBuilderLayoutCapabilities(t *testing.T) {
	keys, measures := builderDataset(2000, 17)
	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: measures},
		polyfit.WithMaxError(25), polyfit.WithDynamic(), polyfit.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := ix.(polyfit.ShardSnapshotter)
	if !ok {
		t.Fatal("sharded dynamic build lost ShardSnapshotter")
	}
	if sh.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", sh.NumShards())
	}
	if got := len(sh.ShardStats()); got != 4 {
		t.Fatalf("ShardStats rows = %d, want 4", got)
	}
	if st := ix.Stats(); st.Shards != 4 || st.Records != len(keys) {
		t.Fatalf("Stats = %+v, want 4 shards over %d records", st, len(keys))
	}
	spec := polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: measures}
	one, err := polyfit.New(spec, polyfit.WithMaxError(25), polyfit.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := polyfit.New(spec, polyfit.WithMaxError(25))
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		r := polyfit.Range{Lo: keys[q], Hi: keys[len(keys)-1-q]}
		a, _ := one.Query(r)
		b, err := plain.Query(r)
		if err != nil || math.Float64bits(a.Value) != math.Float64bits(b.Value) || a.Bound != b.Bound {
			t.Fatalf("one-shard vs unsharded divergence at (%g,%g]: %+v vs %+v (%v)", r.Lo, r.Hi, a, b, err)
		}
	}
}
