package polyfit_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	polyfit "repro"
)

func shardedDataset(n int, seed int64) (keys, measures []float64) {
	rng := rand.New(rand.NewSource(seed))
	set := make(map[float64]bool, n)
	for len(set) < n {
		set[math.Round(rng.NormFloat64()*5e4)/4] = true
	}
	keys = make([]float64, 0, n)
	for k := range set {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	measures = make([]float64, n)
	for i := range measures {
		measures[i] = 100 + 50*math.Sin(float64(i)/30) + rng.Float64()*10
	}
	return keys, measures
}

// TestShardedIndexPublic exercises the exported sharded surface: build,
// bound-reporting queries, batch, round trip, stats.
func TestShardedIndexPublic(t *testing.T) {
	keys, measures := shardedDataset(2000, 1)
	built, err := polyfit.New(polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: measures},
		polyfit.WithMaxError(40), polyfit.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	ix := built.(interface {
		polyfit.Index
		polyfit.Sharder
	})
	if ix.NumShards() != 4 {
		t.Fatalf("NumShards = %d", ix.NumShards())
	}
	st := ix.Stats()
	if st.Shards != 4 || st.Records != len(keys) || st.KeyLo != keys[0] || st.KeyHi != keys[len(keys)-1] {
		t.Fatalf("stats %+v", st)
	}
	if got := len(ix.ShardStats()); got != 4 {
		t.Fatalf("ShardStats len %d", got)
	}
	exact := func(l, u float64) float64 {
		s := 0.0
		for i, k := range keys {
			if k > l && k <= u {
				s += measures[i]
			}
		}
		return s
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 200; q++ {
		i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
		if i > j {
			i, j = j, i
		}
		res, err := ix.Query(polyfit.Range{Lo: keys[i], Hi: keys[j]})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound <= 0 || res.Bound > 4*40 {
			t.Fatalf("bound %g out of range (0, 160]", res.Bound)
		}
		if e := exact(keys[i], keys[j]); math.Abs(res.Value-e) > res.Bound+1e-9*(1+e) {
			t.Fatalf("(%g,%g]: est %g exact %g bound %g", keys[i], keys[j], res.Value, e, res.Bound)
		}
	}
	// Round trip.
	blob, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if polyfit.DetectBlob(blob) != polyfit.BlobShardedStatic {
		t.Fatalf("DetectBlob = %v", polyfit.DetectBlob(blob))
	}
	loaded, err := polyfit.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	span := polyfit.Range{Lo: keys[3], Hi: keys[len(keys)-3]}
	a, _ := ix.Query(span)
	b, _ := loaded.Query(span)
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
		t.Fatalf("round-trip drift: %g vs %g", a.Value, b.Value)
	}
}

// TestShardedDynamicPublic exercises the insertable sharded surface,
// including per-shard rebuilds and the dynamic round trip.
func TestShardedDynamicPublic(t *testing.T) {
	keys, _ := shardedDataset(2400, 3)
	var base, ins []float64
	for i, k := range keys {
		if i%4 == 3 {
			ins = append(ins, k)
		} else {
			base = append(base, k)
		}
	}
	built, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: base},
		polyfit.WithMaxError(30), polyfit.WithDynamic(), polyfit.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	type shardedDynamic interface {
		polyfit.Index
		polyfit.Inserter
		polyfit.ShardSnapshotter
	}
	sd := built.(shardedDynamic)
	for _, k := range ins {
		if err := sd.Insert(k, 1); err != nil {
			t.Fatalf("insert %g: %v", k, err)
		}
	}
	if n := sd.Stats().Records; n != len(keys) {
		t.Fatalf("Records %d, want %d", n, len(keys))
	}
	if err := sd.Insert(ins[0], 1); err == nil {
		t.Fatal("duplicate accepted")
	}
	res, err := sd.Query(polyfit.Range{Lo: keys[0] - 1, Hi: keys[len(keys)-1] + 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-float64(len(keys))) > res.Bound {
		t.Fatalf("full-span count %g ± %g, want %d", res.Value, res.Bound, len(keys))
	}
	if err := sd.RebuildShard(2); err != nil {
		t.Fatal(err)
	}
	blob, err := sd.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if polyfit.DetectBlob(blob) != polyfit.BlobShardedDynamic {
		t.Fatalf("DetectBlob = %v", polyfit.DetectBlob(blob))
	}
	opened, err := polyfit.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored := opened.(shardedDynamic)
	if restored.Stats().Records != sd.Stats().Records || restored.BufferLen() != sd.BufferLen() {
		t.Fatalf("restored len %d/%d, want %d/%d", restored.Stats().Records, restored.BufferLen(), sd.Stats().Records, sd.BufferLen())
	}
	probe := polyfit.Range{Lo: base[10], Hi: base[1500]}
	ra, _ := sd.Query(probe)
	rb, _ := restored.Query(probe)
	if math.Float64bits(ra.Value) != math.Float64bits(rb.Value) {
		t.Fatalf("restored drift: %g vs %g", ra.Value, rb.Value)
	}
	// Per-shard marshal + assembly round trip (the recovery path).
	blobs := make([][]byte, sd.NumShards())
	for i := range blobs {
		if blobs[i], err = sd.MarshalShard(i); err != nil {
			t.Fatal(err)
		}
	}
	assembled, err := polyfit.Assemble(sd.Bounds(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	rc, _ := assembled.Query(probe)
	if math.Float64bits(ra.Value) != math.Float64bits(rc.Value) {
		t.Fatalf("assembled drift: %g vs %g", ra.Value, rc.Value)
	}
}
