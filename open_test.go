package polyfit_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	polyfit "repro"
)

// openDataset builds a small distinct-key dataset shared by the Open tests.
func openDataset(n int) (keys, measures []float64) {
	keys = make([]float64, n)
	measures = make([]float64, n)
	for i := range keys {
		keys[i] = float64(i) * 1.25
		measures[i] = 1 + float64(i%17)
	}
	return keys, measures
}

// buildAllVariants constructs one index per layout through the builder.
func buildAllVariants(t *testing.T) map[string]polyfit.Index {
	t.Helper()
	keys, measures := openDataset(3000)
	variants := map[string][]polyfit.Option{
		"static":          {polyfit.WithMaxError(20)},
		"dynamic":         {polyfit.WithMaxError(20), polyfit.WithDynamic()},
		"sharded":         {polyfit.WithMaxError(20), polyfit.WithShards(4)},
		"sharded-dynamic": {polyfit.WithMaxError(20), polyfit.WithDynamic(), polyfit.WithShards(4)},
	}
	out := make(map[string]polyfit.Index, len(variants))
	for name, opts := range variants {
		ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: measures}, opts...)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[name] = ix
	}
	return out
}

// TestOpenAllBlobKinds proves polyfit.Open restores every variant behind
// the Index interface with identical query answers and the expected
// capabilities.
func TestOpenAllBlobKinds(t *testing.T) {
	wantCaps := map[string]struct{ insert, shard bool }{
		"static":          {false, false},
		"dynamic":         {true, false},
		"sharded":         {false, true},
		"sharded-dynamic": {true, true},
	}
	for name, ix := range buildAllVariants(t) {
		blob, err := ix.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		loaded, err := polyfit.Open(blob)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		for _, r := range []polyfit.Range{{Lo: 10, Hi: 2000}, {Lo: -5, Hi: 5}, {Lo: 3000, Hi: 100}} {
			a, errA := ix.Query(r)
			b, errB := loaded.Query(r)
			if errA != nil || errB != nil || a != b {
				t.Fatalf("%s: Query(%v) diverged after Open: %+v (%v) vs %+v (%v)", name, r, a, errA, b, errB)
			}
		}
		_, canInsert := loaded.(polyfit.Inserter)
		_, canShard := loaded.(polyfit.Sharder)
		if want := wantCaps[name]; canInsert != want.insert || canShard != want.shard {
			t.Errorf("%s: capabilities after Open: insert=%v shard=%v, want %+v", name, canInsert, canShard, want)
		}
		// A dynamic index restored through Open must keep accepting inserts.
		if ins, ok := loaded.(polyfit.Inserter); ok {
			if err := ins.Insert(-123.5, 7); err != nil {
				t.Errorf("%s: insert after Open: %v", name, err)
			}
			if err := ins.Insert(-123.5, 7); !errors.Is(err, polyfit.ErrDuplicateKey) {
				t.Errorf("%s: duplicate insert after Open: got %v, want ErrDuplicateKey", name, err)
			}
		}
	}
}

// TestOpenCorruptBlobs drives Open across every blob kind × a sweep of
// truncations and byte flips: every corruption must come back as an error
// satisfying errors.Is(err, ErrCorruptBlob) — never a panic, never a
// silently loaded index.
func TestOpenCorruptBlobs(t *testing.T) {
	for name, ix := range buildAllVariants(t) {
		blob, err := ix.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: the intact blob must load.
		if _, err := polyfit.Open(blob); err != nil {
			t.Fatalf("%s: intact blob rejected: %v", name, err)
		}
		// Truncations at every small prefix and a sweep of interior cuts.
		cuts := []int{0, 1, 2, 3, 5, 7}
		for c := 8; c < len(blob); c += len(blob)/37 + 1 {
			cuts = append(cuts, c)
		}
		for _, c := range cuts {
			if _, err := polyfit.Open(blob[:c]); err == nil {
				t.Fatalf("%s: truncation to %d bytes accepted", name, c)
			} else if !errors.Is(err, polyfit.ErrCorruptBlob) {
				t.Fatalf("%s: truncation to %d: error %v does not wrap ErrCorruptBlob", name, c, err)
			}
		}
		// Byte flips past the magic (flipping the magic yields BlobUnknown,
		// covered below). Header fields are load-bearing; payload flips may
		// legitimately decode, so only the error kind is asserted.
		for pos := 4; pos < len(blob); pos += len(blob)/53 + 1 {
			mut := append([]byte(nil), blob...)
			mut[pos] ^= 0xff
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: Open panicked on byte flip at %d: %v", name, pos, r)
					}
				}()
				if _, err := polyfit.Open(mut); err != nil && !errors.Is(err, polyfit.ErrCorruptBlob) {
					t.Fatalf("%s: byte flip at %d: error %v does not wrap ErrCorruptBlob", name, pos, err)
				}
			}()
		}
	}
	// Unknown magic and empty input.
	for _, garbage := range [][]byte{nil, {}, []byte("not an index blob")} {
		if _, err := polyfit.Open(garbage); !errors.Is(err, polyfit.ErrCorruptBlob) {
			t.Errorf("Open(%q): got %v, want ErrCorruptBlob", garbage, err)
		}
	}
}

// TestOpenRejects2DBlob pins the routing between Open and Open2D.
func TestOpenRejects2DBlob(t *testing.T) {
	xs, ys := openDataset(500)
	ix2, err := polyfit.NewCount2DIndex(xs, ys, polyfit.Options2D{EpsAbs: 40})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	err = func() error { _, err := polyfit.Open(blob); return err }()
	if err == nil || !strings.Contains(err.Error(), "Open2D") {
		t.Errorf("Open on a 2D blob: got %v, want a pointer to Open2D", err)
	}
	// A valid 2D blob is not corruption; the refusal classifies as a
	// contract mismatch instead.
	if errors.Is(err, polyfit.ErrCorruptBlob) || !errors.Is(err, polyfit.ErrAggMismatch) {
		t.Errorf("Open on a 2D blob: %v should wrap ErrAggMismatch, not ErrCorruptBlob", err)
	}
	loaded, err := polyfit.Open2D(blob)
	if err != nil {
		t.Fatalf("Open2D: %v", err)
	}
	a, _ := ix2.Query(10, 400, 10, 400)
	b, _ := loaded.Query(10, 400, 10, 400)
	if a != b {
		t.Errorf("2D round-trip diverged: %+v vs %+v", a, b)
	}
	// Corrupt 2D blobs classify the same way.
	if _, err := polyfit.Open2D(blob[:len(blob)/2]); !errors.Is(err, polyfit.ErrCorruptBlob) {
		t.Errorf("Open2D on truncated blob: got %v, want ErrCorruptBlob", err)
	}
}

// TestAssembleRoundTrip proves the per-shard recovery path: MarshalShard
// blobs plus bounds reassemble into an equivalent index, and corrupt shard
// blobs or inconsistent bounds are rejected with ErrCorruptBlob.
func TestAssembleRoundTrip(t *testing.T) {
	keys, measures := openDataset(4000)
	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: measures},
		polyfit.WithMaxError(30), polyfit.WithDynamic(), polyfit.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	snap := ix.(polyfit.ShardSnapshotter)
	blobs := make([][]byte, snap.NumShards())
	for i := range blobs {
		if blobs[i], err = snap.MarshalShard(i); err != nil {
			t.Fatal(err)
		}
	}
	assembled, err := polyfit.Assemble(snap.Bounds(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	r := polyfit.Range{Lo: keys[100], Hi: keys[3900]}
	a, _ := ix.Query(r)
	b, _ := assembled.Query(r)
	if a != b {
		t.Fatalf("assembled index diverged: %+v vs %+v", a, b)
	}
	if _, ok := assembled.(polyfit.Inserter); !ok {
		t.Error("assembled index lost the Inserter capability")
	}
	// Corrupt one shard blob → ErrCorruptBlob.
	bad := append([][]byte(nil), blobs...)
	bad[2] = bad[2][:len(bad[2])/3]
	if _, err := polyfit.Assemble(snap.Bounds(), bad); !errors.Is(err, polyfit.ErrCorruptBlob) {
		t.Errorf("Assemble with truncated shard: got %v, want ErrCorruptBlob", err)
	}
	// Inconsistent bounds → ErrCorruptBlob.
	wrong := snap.Bounds()
	wrong[0] = math.Inf(1)
	if _, err := polyfit.Assemble(wrong, blobs); !errors.Is(err, polyfit.ErrCorruptBlob) {
		t.Errorf("Assemble with non-finite bound: got %v, want ErrCorruptBlob", err)
	}
}
