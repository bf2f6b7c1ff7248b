package polyfit

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
)

func TestOptionsValidation(t *testing.T) {
	keys := data.GenTweet(500, 1)
	if _, err := New(Spec{Agg: Count, Keys: keys}); err != ErrBadOptions {
		t.Errorf("zero options should yield ErrBadOptions, got %v", err)
	}
	if _, err := New(Spec{Agg: Count}, WithMaxError(10)); err == nil {
		t.Error("empty keys should error")
	}
}

func TestCountIndexEndToEnd(t *testing.T) {
	keys := data.GenTweet(5000, 2)
	const eps = 50.0
	ix, err := New(Spec{Agg: Count, Keys: keys}, WithMaxError(eps))
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Aggregate != Count || st.Records != 5000 || st.Segments < 1 {
		t.Fatalf("bad stats: %+v", st)
	}
	if st.String() == "" {
		t.Error("Stats.String empty")
	}
	qs := data.RangeQueriesFromKeys(keys, 400, 3)
	for _, q := range qs {
		res, err := ix.Query(Range{Lo: q.L, Hi: q.U})
		if err != nil || !res.Found {
			t.Fatalf("Query error: %v found=%v", err, res.Found)
		}
		got := res.Value
		want := 0.0
		for _, k := range keys {
			if k > q.L && k <= q.U {
				want++
			}
		}
		if math.Abs(got-want) > eps+1e-9 {
			t.Fatalf("|%g − %g| > εabs for %+v", got, want, q)
		}
	}
}

func TestSumIndexEndToEnd(t *testing.T) {
	keys, measures := data.GenHKI(4000, 4)
	ix, err := New(Spec{Agg: Sum, Keys: keys, Measures: measures}, WithMaxError(1e5))
	if err != nil {
		t.Fatal(err)
	}
	qs := data.RangeQueriesFromKeys(keys, 200, 5)
	for _, q := range qs {
		res, err := ix.Query(Range{Lo: q.L, Hi: q.U})
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for i, k := range keys {
			if k > q.L && k <= q.U {
				want += measures[i]
			}
		}
		if math.Abs(res.Value-want) > 1e5+1e-6 {
			t.Fatalf("SUM |%g − %g| > εabs", res.Value, want)
		}
	}
}

func TestMaxMinIndexEndToEnd(t *testing.T) {
	keys, measures := data.GenHKI(4000, 6)
	mx, err := New(Spec{Agg: Max, Keys: keys, Measures: measures}, WithMaxError(100))
	if err != nil {
		t.Fatal(err)
	}
	mn, err := New(Spec{Agg: Min, Keys: keys, Measures: measures}, WithMaxError(100))
	if err != nil {
		t.Fatal(err)
	}
	qs := data.RangeQueriesFromKeys(keys, 200, 7)
	for _, q := range qs {
		r := Range{Lo: q.L, Hi: q.U}
		resMax, err := mx.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		resMin, err := mn.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		gotMax, foundMax := resMax.Value, resMax.Found
		gotMin, foundMin := resMin.Value, resMin.Found
		wantMax, wantMin := math.Inf(-1), math.Inf(1)
		any := false
		for i, k := range keys {
			if k >= q.L && k <= q.U {
				any = true
				wantMax = math.Max(wantMax, measures[i])
				wantMin = math.Min(wantMin, measures[i])
			}
		}
		if !any {
			continue
		}
		if !foundMax || !foundMin {
			t.Fatalf("non-empty range reported empty")
		}
		if gotMax < wantMax-100-1e-6 || gotMax > wantMax+250 {
			t.Fatalf("MAX %g vs %g outside envelope", gotMax, wantMax)
		}
		if gotMin > wantMin+100+1e-6 || gotMin < wantMin-250 {
			t.Fatalf("MIN %g vs %g outside envelope", gotMin, wantMin)
		}
	}
}

func TestQueryRelCertified(t *testing.T) {
	// δ=5 keeps the Lemma 3 gate 2δ(1+1/εrel) = 1010 well below the dataset
	// cardinality so wide queries exercise the approximate path.
	keys := data.GenTweet(6000, 8)
	ix, err := New(Spec{Agg: Count, Keys: keys}, WithDelta(5))
	if err != nil {
		t.Fatal(err)
	}
	qs := data.RangeQueriesFromKeys(keys, 300, 9)
	approx := 0
	for _, q := range qs {
		res, err := ix.QueryRel(Range{Lo: q.L, Hi: q.U}, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, k := range keys {
			if k > q.L && k <= q.U {
				want++
			}
		}
		if res.Exact {
			if res.Value != want {
				t.Fatalf("exact path wrong: %g vs %g", res.Value, want)
			}
			continue
		}
		approx++
		if want == 0 || math.Abs(res.Value-want)/want > 0.01+1e-9 {
			t.Fatalf("relative error violated: %g vs %g", res.Value, want)
		}
	}
	if approx == 0 {
		t.Fatal("approximate path never used")
	}
}

func TestDisableFallback(t *testing.T) {
	keys := data.GenTweet(1000, 10)
	ix, err := New(Spec{Agg: Count, Keys: keys}, WithMaxError(20), WithFallback(false))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stats().FallbackBytes != 0 {
		t.Error("fallback bytes should be 0")
	}
	if _, err := ix.QueryRel(Range{Lo: keys[0], Hi: keys[1]}, 1e-12); err != ErrNoFallback {
		t.Errorf("want ErrNoFallback, got %v", err)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	keys := data.GenTweet(3000, 11)
	orig, err := New(Spec{Agg: Count, Keys: keys}, WithMaxError(40))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	qs := data.RangeQueriesFromKeys(keys, 100, 12)
	for _, q := range qs {
		a, _ := orig.Query(Range{Lo: q.L, Hi: q.U})
		b, err := loaded.Query(Range{Lo: q.L, Hi: q.U})
		if err != nil || a != b {
			t.Fatalf("round-trip divergence: %+v vs %+v (%v)", a, b, err)
		}
	}
}

func TestIndex2DEndToEnd(t *testing.T) {
	xs, ys := data.GenOSM(5000, 13)
	ix, err := NewCount2DIndex(xs, ys, Options2D{EpsAbs: 200})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.Records != 5000 || st.Leaves < 1 || st.Depth < 1 {
		t.Fatalf("bad 2D stats: %+v", st)
	}
	qs := data.UniformRects(-180, 180, -90, 90, 200, 14)
	bad := 0
	for _, q := range qs {
		res, err := ix.Query(q.XLo, q.XHi, q.YLo, q.YHi)
		if err != nil || !res.Found {
			t.Fatalf("Query(%+v): found=%v err=%v", q, res.Found, err)
		}
		got := res.Value
		want := 0.0
		for i := range xs {
			if xs[i] > q.XLo && xs[i] <= q.XHi && ys[i] > q.YLo && ys[i] <= q.YHi {
				want++
			}
		}
		if math.Abs(got-want) > 200+1e-6 {
			bad++
		}
	}
	if bad > len(qs)/20 {
		t.Fatalf("%d/%d 2D queries outside εabs", bad, len(qs))
	}
	// Relative path.
	res, err := ix.QueryRel(-180, 180, -90, 90, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-5000) > 0.05*5000+1 {
		t.Errorf("whole-domain relative query %g, want ≈5000", res.Value)
	}
	// Round-trip.
	blob, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Open2D(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs[:50] {
		a, _ := ix.Query(q.XLo, q.XHi, q.YLo, q.YHi)
		b, _ := loaded.Query(q.XLo, q.XHi, q.YLo, q.YHi)
		if a != b {
			t.Fatalf("2D round-trip divergence: %+v vs %+v", a, b)
		}
	}
}

func TestIndex2DQueryValidation(t *testing.T) {
	xs, ys := data.GenOSM(2000, 16)
	ix, err := NewCount2DIndex(xs, ys, Options2D{EpsAbs: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Inverted rectangles are empty: 0 with found=true, like the 1D COUNT.
	if res, err := ix.Query(10, -10, 0, 5); res.Value != 0 || !res.Found || err != nil {
		t.Errorf("inverted rectangle: (%+v, %v), want (0, true, nil)", res, err)
	}
	// NaN coordinates are caller bugs; reject instead of answering garbage.
	nan := math.NaN()
	for _, r := range [][4]float64{{nan, 10, 0, 5}, {0, nan, 0, 5}, {0, 10, nan, 5}, {0, 10, 0, nan}} {
		if res, err := ix.Query(r[0], r[1], r[2], r[3]); err == nil || res.Found {
			t.Errorf("Query(%v) accepted a NaN rectangle", r)
		}
		if _, err := ix.QueryRel(r[0], r[1], r[2], r[3], 0.05); err == nil {
			t.Errorf("QueryRel(%v) accepted a NaN rectangle", r)
		}
	}
}

func TestIndex2DOptionsValidation(t *testing.T) {
	xs, ys := data.GenOSM(100, 15)
	if _, err := NewCount2DIndex(xs, ys, Options2D{}); err != ErrBadOptions {
		t.Errorf("zero options should yield ErrBadOptions, got %v", err)
	}
	if _, err := NewCount2DIndex(nil, nil, Options2D{EpsAbs: 10}); err == nil {
		t.Error("empty points should error")
	}
}

func TestCompressionHeadline(t *testing.T) {
	// The headline claim: the index is far smaller than the data.
	keys := data.GenTweet(50000, 16)
	ix, err := New(Spec{Agg: Count, Keys: keys}, WithMaxError(100), WithFallback(false))
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	raw := 8 * len(keys)
	if st.IndexBytes*10 > raw {
		t.Errorf("index %dB not ≤ 10%% of raw %dB (segments=%d)", st.IndexBytes, raw, st.Segments)
	}
	t.Logf("compression: %d keys (%d B) → %d segments (%d B)", len(keys), raw, st.Segments, st.IndexBytes)
}

func BenchmarkPublicQueryCount(b *testing.B) {
	keys := data.GenTweet(100000, 1)
	ix, err := New(Spec{Agg: Count, Keys: keys}, WithMaxError(100))
	if err != nil {
		b.Fatal(err)
	}
	qs := data.RangeQueriesFromKeys(keys, 1024, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i&1023]
		ix.Query(Range{Lo: q.L, Hi: q.U}) //nolint:errcheck
	}
}

var sinkRand = rand.New(rand.NewSource(1)) // referenced to keep math/rand imported for future benches
