package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzUnmarshal1D hardens the 1D decoder: arbitrary bytes must either fail
// cleanly or produce an index whose queries do not panic and stay finite.
func FuzzUnmarshal1D(f *testing.F) {
	keys, measures := genDataset(200, 91)
	ix, _ := BuildCount(keys, Options{Delta: 10})
	blob, _ := ix.MarshalBinary()
	f.Add(blob)
	mx, _ := BuildMax(keys, measures, Options{Delta: 10})
	blobMax, _ := mx.MarshalBinary()
	f.Add(blobMax)
	// Seed every coefficient encoding plus the corruption classes its lanes
	// add: truncated lane arrays and a tampered encoding-mode byte.
	bigKeys, _ := genDataset(20000, 92)
	for _, enc := range []Encoding{EncRaw, EncF32, EncPacked} {
		eix, _ := BuildCount(bigKeys, Options{Delta: 2, Encoding: enc, NoFallback: true})
		eb, _ := eix.MarshalBinary()
		f.Add(eb)
		f.Add(eb[:len(eb)-len(eb)/3]) // lanes cut mid-array
		tampered := append([]byte(nil), eb...)
		tampered[56] ^= 0xFF // encoding-mode byte
		f.Add(tampered)
	}
	f.Add([]byte{})
	f.Add(blob[:16])
	f.Fuzz(func(t *testing.T, data []byte) {
		var loaded Index1D
		if err := loaded.UnmarshalBinary(data); err != nil {
			return // clean rejection
		}
		// Whatever decoded must be queryable without panicking (NaN values
		// are legitimate when the fuzzer writes NaN coefficient bits).
		switch loaded.Aggregate() {
		case Count, Sum:
			loaded.RangeSum(-1e9, 1e9) //nolint:errcheck
		case Min, Max:
			loaded.RangeExtremum(-1e9, 1e9) //nolint:errcheck
		}
		_ = loaded.SizeBytes()
		_ = loaded.NumSegments()
	})
}

// TestWriteEncodingCorpus regenerates the checked-in packed-lane fuzz seeds
// under testdata/fuzz/FuzzUnmarshal1D (run with CORPUS_WRITE=1 after a format
// change). Checked-in corpus files replay on every plain `go test` run, so
// the lane-decoder corruption classes stay covered without -fuzz.
func TestWriteEncodingCorpus(t *testing.T) {
	if os.Getenv("CORPUS_WRITE") == "" {
		t.Skip("set CORPUS_WRITE=1 to regenerate the corpus files")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUnmarshal1D")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keys, _ := genDataset(20000, 92)
	packed, err := BuildCount(keys, Options{Delta: 2, Encoding: EncPacked, NoFallback: true})
	if err != nil || packed.Encoding() != EncPacked {
		t.Fatalf("packed build: enc=%v err=%v", packed.Encoding(), err)
	}
	pb, _ := packed.MarshalBinary()
	write("valid-packed-lanes", pb)
	write("truncated-packed-lanes", pb[:len(pb)-len(pb)/3])
	tampered := append([]byte(nil), pb...)
	tampered[56] ^= 0xFF // encoding-mode byte
	write("tampered-encoding-byte", tampered)
	badWidth := append([]byte(nil), pb...)
	badWidth[56+1+2+8+4*packed.NumSegments()] = 3 // first lane width byte
	write("bad-lane-width", badWidth)
	badGrid := append([]byte(nil), pb...)
	for i := 0; i < 8; i++ {
		badGrid[56+1+2+8+i] = 0xFF // grid starts no longer increasing
	}
	write("nonincreasing-grid-starts", badGrid)
	f32, err := BuildCount(keys, Options{Delta: 2, Encoding: EncF32, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	fb, _ := f32.MarshalBinary()
	write("valid-f32-lanes", fb)
	write("truncated-f32-lanes", fb[:len(fb)-len(fb)/4])
}

// FuzzUnmarshal2D hardens the recursive quadtree decoder against crafted
// blobs (depth bombs, truncations, type confusion with 1D blobs).
func FuzzUnmarshal2D(f *testing.F) {
	xs, ys := gen2D(300, 93)
	ix, _ := BuildCount2D(xs, ys, Options2D{Delta: 30})
	blob, _ := ix.MarshalBinary()
	f.Add(blob)
	f.Add([]byte{})
	f.Add(blob[:12])
	f.Fuzz(func(t *testing.T, data []byte) {
		var loaded Index2D
		if err := loaded.UnmarshalBinary(data); err != nil {
			return
		}
		_ = loaded.RangeCount(-200, 200, -100, 100)
		_ = loaded.SizeBytes()
	})
}

// FuzzUnmarshalSharded hardens the POLS container decoders (static and
// dynamic kinds share the header and directory): corrupt shard
// directories, truncated shards, and mismatched shard counts must error
// cleanly — whatever decodes must answer queries without panicking.
func FuzzUnmarshalSharded(f *testing.F) {
	keys, measures := genDataset(240, 97)
	s, _ := BuildSharded(Sum, keys, measures, 4, Options{Delta: 10, NoFallback: true})
	blob, _ := s.MarshalBinary()
	f.Add(blob)
	sd, _ := NewShardedDynamic(Max, keys, measures, 3, Options{Delta: 10, NoFallback: true})
	dynBlob, _ := sd.MarshalBinary()
	f.Add(dynBlob)
	// Seed the corruption classes the decoder must reject: truncated shard,
	// mismatched shard count, and a scrambled directory entry.
	f.Add(blob[:len(blob)-9])
	countUp := append([]byte(nil), blob...)
	countUp[8]++ // directory claims one more shard than present
	f.Add(countUp)
	dirBad := append([]byte(nil), dynBlob...)
	for i := 12; i < 20 && i < len(dirBad); i++ {
		dirBad[i] ^= 0xFF // mangle the first routing bound
	}
	f.Add(dirBad)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var loaded Sharded1D
		if err := loaded.UnmarshalBinary(data); err == nil {
			loaded.Query(context.Background(), Range{Lo: -1e9, Hi: 1e9})                           //nolint:errcheck
			loaded.QueryBatch(context.Background(), []Range{{Lo: -1e9, Hi: 1e9}, {Lo: 1, Hi: -1}}) //nolint:errcheck
			_ = loaded.SizeBytes()
		}
		if restored, err := RestoreShardedDynamic(data); err == nil {
			restored.Query(context.Background(), Range{Lo: -1e9, Hi: 1e9}) //nolint:errcheck
			restored.Insert(math.Pi, 1)                                    //nolint:errcheck
			_ = restored.Len()
		}
	})
}

// FuzzRangeSumInvariants checks structural invariants of COUNT queries under
// arbitrary float inputs (including NaN/Inf endpoints).
func FuzzRangeSumInvariants(f *testing.F) {
	keys, _ := genDataset(500, 95)
	ix, err := BuildCount(keys, Options{Delta: 15})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(1.0, 2.0)
	f.Add(-1e308, 1e308)
	f.Add(math.Inf(-1), math.Inf(1))
	f.Fuzz(func(t *testing.T, l, u float64) {
		if math.IsNaN(l) || math.IsNaN(u) {
			return
		}
		v, err := ix.RangeSum(l, u)
		if err != nil {
			t.Fatal(err)
		}
		if u < l && v != 0 {
			t.Fatalf("inverted range returned %g", v)
		}
		if math.IsNaN(v) {
			t.Fatalf("NaN from finite query [%g,%g]", l, u)
		}
		// Telescoping identity must hold exactly.
		if l <= u {
			mid := l + (u-l)/2
			if !math.IsInf(mid, 0) {
				a, _ := ix.RangeSum(l, mid)
				b, _ := ix.RangeSum(mid, u)
				if math.Abs((a+b)-v) > 1e-6*(1+math.Abs(v)) {
					t.Fatalf("additivity broken: %g + %g != %g", a, b, v)
				}
			}
		}
	})
}

// FuzzInsertBatch checks that InsertBatch has exactly the outcome of one
// Insert per record: the same per-record errors, and the same state byte
// for byte (MarshalBinary), however the records are cut into batches. The
// records include duplicates (of base keys, of earlier records, within one
// batch), NaN and ±Inf keys and measures, and non-integer measures; with
// 5,000 or more of them, both a plain dynamic index and a 4-shard one
// cross tail merges and merge-rebuilds.
func FuzzInsertBatch(f *testing.F) {
	f.Add(int64(1), uint8(Sum), uint16(6000), uint8(4))
	f.Add(int64(2), uint8(Sum), uint16(5500), uint8(255))
	f.Add(int64(3), uint8(Max), uint16(5000), uint8(64))
	f.Add(int64(4), uint8(Count), uint16(700), uint8(1))
	f.Add(int64(5), uint8(Min), uint16(300), uint8(0))
	base := make([]float64, 8400)
	baseVals := make([]float64, len(base))
	for i := range base {
		base[i] = float64(2 * i)
		baseVals[i] = float64(i%97) + 0.25
	}
	f.Fuzz(func(t *testing.T, seed int64, aggB uint8, n uint16, cut uint8) {
		agg := Agg(int(aggB) % 4)
		rng := rand.New(rand.NewSource(seed))
		keys, measures := make([]float64, int(n)%8000), make([]float64, int(n)%8000)
		for i := range keys {
			switch p := rng.Float64(); {
			case p < 0.03:
				keys[i] = base[rng.Intn(len(base))]
			case p < 0.06 && i > 0:
				keys[i] = keys[rng.Intn(i)]
			case p < 0.07:
				keys[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			default:
				keys[i] = rng.Float64() * 2 * float64(len(base))
			}
			measures[i] = rng.Float64() * 10
			if rng.Float64() < 0.02 {
				measures[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
		}
		type inserter interface {
			Insert(key, measure float64) error
			InsertBatch(keys, measures []float64) []error
			MarshalBinary() ([]byte, error)
		}
		opt := Options{Delta: 20, NoFallback: true}
		for _, shards := range []int{1, 4} {
			var one, batched inserter
			var dyns []*Dynamic1D // one's shards, for the coverage check
			if shards == 1 {
				a, err1 := NewDynamic(agg, base, baseVals, opt)
				b, err2 := NewDynamic(agg, base, baseVals, opt)
				if err := firstErr(err1, err2); err != nil {
					t.Fatal(err)
				}
				one, batched, dyns = a, b, []*Dynamic1D{a}
			} else {
				a, err1 := NewShardedDynamic(agg, base, baseVals, shards, opt)
				b, err2 := NewShardedDynamic(agg, base, baseVals, shards, opt)
				if err := firstErr(err1, err2); err != nil {
					t.Fatal(err)
				}
				one, batched, dyns = a, b, a.shards
			}
			merges, mainLen := 0, 0
			want := make([]error, len(keys))
			for i := range keys {
				want[i] = one.Insert(keys[i], measures[i])
				m := 0
				for _, d := range dyns {
					m += len(d.state.Load().main.keys)
				}
				if m > mainLen {
					merges++
				}
				mainLen = m
			}
			var got []error
			for lo := 0; lo < len(keys); {
				hi := min(len(keys), lo+1+rng.Intn(1+int(cut)*16))
				got = append(got, batched.InsertBatch(keys[lo:hi], measures[lo:hi])...)
				lo = hi
			}
			for i := range keys {
				if (want[i] == nil) != (got[i] == nil) || want[i] != nil && want[i].Error() != got[i].Error() {
					t.Fatalf("%d shards, record %d (%g, %g): Insert %v, InsertBatch %v", shards, i, keys[i], measures[i], want[i], got[i])
				}
			}
			wb, err1 := one.MarshalBinary()
			gb, err2 := batched.MarshalBinary()
			if err := firstErr(err1, err2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, gb) {
				t.Fatalf("%d shards: state after InsertBatch differs from one Insert per record", shards)
			}
			rebuilds := 0
			for _, d := range dyns {
				rebuilds += d.Rebuilds() - 1
			}
			if len(keys) >= 5000 && (merges == 0 || rebuilds == 0) {
				t.Fatalf("%d shards: %d records crossed %d tail merges and %d rebuilds, want both", shards, len(keys), merges, rebuilds)
			}
		}
	})
}
