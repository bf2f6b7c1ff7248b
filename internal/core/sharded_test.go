package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func buildShardedFor(t testing.TB, agg Agg, keys, measures []float64, k int, opt Options) *Sharded1D {
	t.Helper()
	s, err := BuildSharded(agg, keys, measures, k, opt)
	if err != nil {
		t.Fatalf("BuildSharded(%v, k=%d): %v", agg, k, err)
	}
	return s
}

// TestShardedMatchesExact checks the absolute guarantee of scatter-gather
// answers against brute force, for every aggregate and several shard
// counts (including K=1 and K>len split degenerate cases).
func TestShardedMatchesExact(t *testing.T) {
	keys, measures := genDataset(3000, 17)
	const delta = 25.0
	rng := rand.New(rand.NewSource(99))
	for _, k := range []int{1, 2, 4, 7, 16} {
		for _, agg := range []Agg{Count, Sum, Max, Min} {
			s := buildShardedFor(t, agg, keys, measures, k, Options{Delta: delta})
			if s.NumShards() != k {
				t.Fatalf("k=%d: got %d shards", k, s.NumShards())
			}
			for q := 0; q < 300; q++ {
				i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
				if i > j {
					i, j = j, i
				}
				lq, uq := keys[i], keys[j]
				switch agg {
				case Count, Sum:
					v, bound, err := s.sum(lq, uq)
					if err != nil {
						t.Fatal(err)
					}
					var exact float64
					if agg == Count {
						exact = float64(j - i)
					} else {
						exact = exactSumHalfOpen(keys, measures, lq, uq)
					}
					if math.Abs(v-exact) > bound+1e-9*(1+math.Abs(exact)) {
						t.Fatalf("%v k=%d (%g,%g]: est %g exact %g bound %g", agg, k, lq, uq, v, exact, bound)
					}
				case Max, Min:
					v, bound, ok, err := s.ext(lq, uq)
					if err != nil {
						t.Fatal(err)
					}
					exact, eok := exactMax(keys, measures, lq, uq)
					if agg == Min {
						exact, eok = exactMin(keys, measures, lq, uq)
					}
					if ok != eok {
						t.Fatalf("%v k=%d [%g,%g]: found %v, exact found %v", agg, k, lq, uq, ok, eok)
					}
					if ok && math.Abs(v-exact) > bound+1e-9*(1+math.Abs(exact)) {
						t.Fatalf("%v k=%d [%g,%g]: est %g exact %g bound %g", agg, k, lq, uq, v, exact, bound)
					}
				}
			}
		}
	}
}

// TestShardedBoundComposition checks the reported bound: 2δ·m for
// COUNT/SUM over m touched shards, δ for MIN/MAX regardless of span.
func TestShardedBoundComposition(t *testing.T) {
	keys, measures := genDataset(2000, 23)
	const delta = 10.0
	s := buildShardedFor(t, Count, keys, measures, 4, Options{Delta: delta})
	b := s.Bounds()
	// A range inside shard 1 touches one shard.
	if _, bound, _ := s.sum(b[0], math.Nextafter(b[1], b[0])); bound != 2*delta {
		t.Fatalf("interior bound %g, want %g", bound, 2*delta)
	}
	// A full-span range touches all four.
	if _, bound, _ := s.sum(keys[0]-1, keys[len(keys)-1]+1); bound != 8*delta {
		t.Fatalf("full-span bound %g, want %g", bound, 8*delta)
	}
	m := buildShardedFor(t, Max, keys, measures, 4, Options{Delta: delta})
	if _, bound, _, _ := m.ext(keys[0], keys[len(keys)-1]); bound != delta {
		t.Fatalf("extremum bound %g, want %g", bound, delta)
	}
}

// TestShardedBatchMatchesSingle checks QueryBatch against per-range single
// queries, bitwise, for random and empty ranges across all aggregates.
func TestShardedBatchMatchesSingle(t *testing.T) {
	keys, measures := genDataset(2500, 31)
	rng := rand.New(rand.NewSource(7))
	ranges := make([]Range, 400)
	for i := range ranges {
		a, b := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		if rng.Intn(10) == 0 {
			a, b = b, math.Min(a, b)-1 // inverted (empty) range
		} else if a > b {
			a, b = b, a
		}
		ranges[i] = Range{Lo: a, Hi: b}
	}
	for _, agg := range []Agg{Count, Sum, Max, Min} {
		s := buildShardedFor(t, agg, keys, measures, 5, Options{Delta: 15})
		got, err := s.QueryBatch(context.Background(), ranges)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range ranges {
			var want BatchResult
			switch agg {
			case Count, Sum:
				v, _, err := s.sum(r.Lo, r.Hi)
				if err != nil {
					t.Fatal(err)
				}
				want = BatchResult{Value: v, Found: true}
			default:
				v, _, ok, err := s.ext(r.Lo, r.Hi)
				if err != nil {
					t.Fatal(err)
				}
				want = BatchResult{Value: v, Found: ok}
			}
			if got[i].Found != want.Found || math.Float64bits(got[i].Value) != math.Float64bits(want.Value) {
				t.Fatalf("%v range %d %+v: batch %+v, single %+v", agg, i, r, got[i], want)
			}
		}
	}
}

// TestShardedRel checks the relative-error path: certified answers within
// εrel of exact, and the exact fallback kicking in on small ranges.
func TestShardedRel(t *testing.T) {
	keys, measures := genDataset(2000, 41)
	s := buildShardedFor(t, Sum, keys, measures, 4, Options{Delta: 50})
	rng := rand.New(rand.NewSource(3))
	sawExact := false
	for q := 0; q < 400; q++ {
		i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
		if i > j {
			i, j = j, i
		}
		lq, uq := keys[i], keys[j]
		res, err := s.QueryRel(context.Background(), Range{Lo: lq, Hi: uq}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		v, bound, usedExact := res.Value, res.Bound, res.Exact
		if usedExact != (bound == 0) {
			t.Fatalf("(%g,%g]: exact=%v but bound=%g", lq, uq, usedExact, bound)
		}
		sawExact = sawExact || usedExact
		exact := exactSumHalfOpen(keys, measures, lq, uq)
		if exact > 0 && math.Abs(v-exact)/exact > 0.05+1e-9 {
			t.Fatalf("(%g,%g]: rel err %g (exact path %v)", lq, uq, math.Abs(v-exact)/exact, usedExact)
		}
	}
	if !sawExact {
		t.Fatal("no query exercised the exact fallback; shrink the workload")
	}
	// NoFallback indexes must refuse, not mis-certify.
	nf := buildShardedFor(t, Sum, keys, measures, 4, Options{Delta: 50, NoFallback: true})
	if _, err := nf.QueryRel(context.Background(), Range{Lo: keys[0], Hi: keys[1]}, 0.05); err != ErrNoFallback {
		t.Fatalf("NoFallback rel query: err %v, want ErrNoFallback", err)
	}
	mx := buildShardedFor(t, Max, keys, measures, 4, Options{Delta: 50})
	for q := 0; q < 100; q++ {
		i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
		if i > j {
			i, j = j, i
		}
		res, err := mx.QueryRel(context.Background(), Range{Lo: keys[i], Hi: keys[j]}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := res.Value, res.Found
		exact, eok := exactMax(keys, measures, keys[i], keys[j])
		if ok != eok {
			t.Fatalf("found mismatch")
		}
		if ok && exact > 0 && math.Abs(v-exact)/exact > 0.05+1e-9 {
			t.Fatalf("[%g,%g]: rel err %g", keys[i], keys[j], math.Abs(v-exact)/exact)
		}
	}
}

// TestShardedDynamicInsertAndQuery routes inserts across shards and checks
// answers (and shard locality) afterwards.
func TestShardedDynamicInsertAndQuery(t *testing.T) {
	keys, measures := genDataset(3000, 53)
	// Hold back every third record for inserting.
	var bk, bm, ik, im []float64
	for i := range keys {
		if i%3 == 2 {
			ik = append(ik, keys[i])
			im = append(im, measures[i])
		} else {
			bk = append(bk, keys[i])
			bm = append(bm, measures[i])
		}
	}
	for _, agg := range []Agg{Count, Sum, Max, Min} {
		sd, err := NewShardedDynamic(agg, bk, bm, 4, Options{Delta: 20})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ik {
			if err := sd.Insert(ik[i], im[i]); err != nil {
				t.Fatalf("insert %g: %v", ik[i], err)
			}
		}
		if sd.Len() != len(keys) {
			t.Fatalf("len %d, want %d", sd.Len(), len(keys))
		}
		// Duplicate detection must work across the routed shard.
		if err := sd.Insert(ik[0], 1); err == nil {
			t.Fatal("duplicate insert accepted")
		}
		// Endpoints come from the base key set: those are the workload
		// endpoints the paper's guarantee covers (inserted keys sit between
		// fitted samples until a rebuild folds them in); the exact answer
		// still aggregates over ALL records, buffered inserts included.
		rng := rand.New(rand.NewSource(int64(agg)))
		for q := 0; q < 200; q++ {
			i, j := rng.Intn(len(bk)), rng.Intn(len(bk))
			if i > j {
				i, j = j, i
			}
			lq, uq := bk[i], bk[j]
			switch agg {
			case Count, Sum:
				v, bound, err := sd.sum(lq, uq)
				if err != nil {
					t.Fatal(err)
				}
				exact := exactSumHalfOpen(keys, measures, lq, uq)
				if agg == Count {
					exact = 0
					for _, k := range keys {
						if k > lq && k <= uq {
							exact++
						}
					}
				}
				if math.Abs(v-exact) > bound+1e-9*(1+math.Abs(exact)) {
					t.Fatalf("%v (%g,%g]: est %g exact %g bound %g", agg, lq, uq, v, exact, bound)
				}
			default:
				v, bound, ok, err := sd.ext(lq, uq)
				if err != nil {
					t.Fatal(err)
				}
				exact, eok := exactMax(keys, measures, lq, uq)
				if agg == Min {
					exact, eok = exactMin(keys, measures, lq, uq)
				}
				if ok != eok || (ok && math.Abs(v-exact) > bound+1e-9*(1+math.Abs(exact))) {
					t.Fatalf("%v [%g,%g]: est %g (ok=%v) exact %g (ok=%v)", agg, lq, uq, v, ok, exact, eok)
				}
			}
		}
		// Per-shard rebuild folds only that shard's buffer.
		before := sd.BufferLen()
		hot := sd.ShardOf(ik[len(ik)/2])
		hotBuf := sd.Shard(hot).BufferLen()
		if err := sd.RebuildShard(hot); err != nil {
			t.Fatal(err)
		}
		if got := sd.BufferLen(); got != before-hotBuf {
			t.Fatalf("rebuild shard %d: buffer %d -> %d, want %d", hot, before, got, before-hotBuf)
		}
		if err := sd.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if sd.BufferLen() != 0 {
			t.Fatalf("buffer %d after full rebuild", sd.BufferLen())
		}
	}
}

// TestShardedNonFiniteEndpoints: non-finite query endpoints must never
// panic. NaN endpoints would route arbitrarily through the shard search,
// so the engine rejects them with ErrInvalidRange; ±Inf endpoints are
// ordinary unbounded ranges.
func TestShardedNonFiniteEndpoints(t *testing.T) {
	keys, measures := genDataset(500, 73)
	nan, inf := math.NaN(), math.Inf(1)
	edges := [][2]float64{
		{nan, 5}, {5, nan}, {nan, nan}, {-inf, nan}, {nan, inf}, {-inf, inf},
	}
	ctx := context.Background()
	for _, agg := range []Agg{Count, Max} {
		s := buildShardedFor(t, agg, keys, measures, 4, Options{Delta: 10, NoFallback: true})
		sd, err := NewShardedDynamic(agg, keys, measures, 4, Options{Delta: 10, NoFallback: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range [...]*Engine{&s.Engine, &sd.Engine} {
			for _, edge := range edges {
				hasNaN := math.IsNaN(edge[0]) || math.IsNaN(edge[1])
				r := Range{Lo: edge[0], Hi: edge[1]}
				if _, err := e.Query(ctx, r); hasNaN != errors.Is(err, ErrInvalidRange) {
					t.Fatalf("%v Query(%v): err %v", agg, r, err)
				}
				_, err := e.QueryBatch(ctx, []Range{r, {Lo: keys[1], Hi: keys[10]}})
				if hasNaN != errors.Is(err, ErrInvalidRange) {
					t.Fatalf("%v QueryBatch(%v): err %v", agg, r, err)
				}
			}
		}
	}
}

// TestShardedRoundTrip checks POLS serialization for both kinds: static
// containers answer identically after a round trip, dynamic containers
// restore buffers, options, and fallbacks.
func TestShardedRoundTrip(t *testing.T) {
	keys, measures := genDataset(1500, 61)
	s := buildShardedFor(t, Sum, keys, measures, 4, Options{Delta: 30})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if DetectBlob(blob) != BlobShardedStatic {
		t.Fatalf("DetectBlob = %v, want BlobShardedStatic", DetectBlob(blob))
	}
	var loaded Sharded1D
	if err := loaded.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 200; q++ {
		i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
		if i > j {
			i, j = j, i
		}
		a, _, _ := s.sum(keys[i], keys[j])
		b, _, _ := loaded.sum(keys[i], keys[j])
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("round-trip drift: %g vs %g", a, b)
		}
	}
	// Loaded static containers drop fallbacks by design: a range too small
	// to pass the certification gate must refuse, not answer uncertified.
	if _, err := loaded.QueryRel(context.Background(), Range{Lo: keys[10], Hi: keys[12]}, 0.001); err != ErrNoFallback {
		t.Fatalf("loaded rel query: %v, want ErrNoFallback", err)
	}

	sd, err := NewShardedDynamic(Max, keys, measures, 3, Options{Delta: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := sd.Insert(keys[i]+0.01, measures[i]); err != nil {
			t.Fatal(err)
		}
	}
	dynBlob, err := sd.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if DetectBlob(dynBlob) != BlobShardedDynamic {
		t.Fatalf("DetectBlob = %v, want BlobShardedDynamic", DetectBlob(dynBlob))
	}
	restored, err := RestoreShardedDynamic(dynBlob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.BufferLen() != sd.BufferLen() {
		t.Fatalf("buffer %d, want %d", restored.BufferLen(), sd.BufferLen())
	}
	for q := 0; q < 200; q++ {
		i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
		if i > j {
			i, j = j, i
		}
		a, _, aok, _ := sd.ext(keys[i], keys[j])
		b, _, bok, _ := restored.ext(keys[i], keys[j])
		if aok != bok || math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("dynamic round-trip drift at [%g,%g]", keys[i], keys[j])
		}
	}
	// Restored indexes stay insertable with duplicate detection intact.
	if err := restored.Insert(keys[0], 1); err == nil {
		t.Fatal("restored index accepted duplicate")
	}
	if err := restored.Insert(keys[len(keys)-1]+1, 5); err != nil {
		t.Fatal(err)
	}
	// Kind confusion errors cleanly in both directions.
	var wrong Sharded1D
	if err := wrong.UnmarshalBinary(dynBlob); err == nil {
		t.Fatal("static Unmarshal accepted dynamic container")
	}
	if _, err := RestoreShardedDynamic(blob); err == nil {
		t.Fatal("RestoreShardedDynamic accepted static container")
	}
}

// TestShardedUnmarshalCorrupt walks corruption classes the fuzz target
// covers, deterministically: truncations, bad shard counts, scrambled
// directory, non-monotone bounds.
func TestShardedUnmarshalCorrupt(t *testing.T) {
	keys, measures := genDataset(600, 71)
	s := buildShardedFor(t, Count, keys, measures, 4, Options{Delta: 10, NoFallback: true})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut += 7 {
		var loaded Sharded1D
		if err := loaded.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Shard count tampering: directory says more/fewer shards than present.
	for _, k := range []uint32{0, 3, 5, 1 << 20} {
		bad := append([]byte(nil), blob...)
		bad[8] = byte(k)
		bad[9] = byte(k >> 8)
		bad[10] = byte(k >> 16)
		bad[11] = byte(k >> 24)
		var loaded Sharded1D
		if err := loaded.UnmarshalBinary(bad); err == nil {
			t.Fatalf("shard count %d accepted", k)
		}
	}
	// Non-monotone bounds (first two bounds swapped).
	bad := append([]byte(nil), blob...)
	copy(bad[12:20], blob[20:28])
	copy(bad[20:28], blob[12:20])
	var loaded Sharded1D
	if err := loaded.UnmarshalBinary(bad); err == nil {
		t.Fatal("swapped bounds accepted")
	}
}

func BenchmarkShardedQuerySpan(b *testing.B) {
	keys, measures := genDataset(50_000, 81)
	s, err := BuildSharded(Count, keys, measures, 8, Options{Delta: 25, NoFallback: true})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := keys[100], keys[len(keys)-100]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.sum(lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedQueryBatch(b *testing.B) {
	keys, measures := genDataset(50_000, 83)
	s, err := BuildSharded(Count, keys, measures, 8, Options{Delta: 1, NoFallback: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ranges := make([]Range, 512)
	for i := range ranges {
		a, c := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		if a > c {
			a, c = c, a
		}
		ranges[i] = Range{Lo: a, Hi: c}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryBatch(context.Background(), ranges); err != nil {
			b.Fatal(err)
		}
	}
}

// sum and ext answer through the engine in the tuple shapes these tests
// compare.
func (s *Engine) sum(lq, uq float64) (val, bound float64, err error) {
	r, err := s.Query(context.Background(), Range{Lo: lq, Hi: uq})
	return r.Value, r.Bound, err
}

func (s *Engine) ext(lq, uq float64) (val, bound float64, ok bool, err error) {
	r, err := s.Query(context.Background(), Range{Lo: lq, Hi: uq})
	return r.Value, r.Bound, r.Found, err
}
