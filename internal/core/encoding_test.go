package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// marshalV1 writes an EncRaw index in the historical POL1 v1 array-of-structs
// layout (per-segment lo, hi, frame, trimmed coefficients). Kept in the tests
// as the reference writer for backward-compatibility coverage: the shipping
// Marshal now writes v2, but v1 blobs in the wild must keep loading.
func marshalV1(t *testing.T, ix *Index1D) []byte {
	t.Helper()
	if ix.enc != EncRaw {
		t.Fatalf("marshalV1 needs a raw-encoded index, got %v", ix.enc)
	}
	var buf bytes.Buffer
	w := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w(magic1D)
	w(uint16(1))
	w(uint8(ix.agg))
	w(uint8(btoi(ix.neg)))
	w(uint32(ix.degree))
	w(ix.delta)
	w(uint64(ix.n))
	w(ix.keyLo)
	w(ix.keyHi)
	w(ix.total)
	h := ix.NumSegments()
	w(uint32(h))
	for i := 0; i < h; i++ {
		w(ix.segLo[i])
		w(ix.segHi[i])
		w(ix.frCtr[i])
		w(ix.frHW[i])
		fp := ix.framedPolyAt(i)
		w(uint16(len(fp.P)))
		for _, c := range fp.P {
			w(c)
		}
	}
	w(uint8(btoi(ix.segExt != nil)))
	for _, v := range ix.segExt {
		w(v)
	}
	return buf.Bytes()
}

// TestV1BlobLoadsBitIdentical: a POL1 v1 blob (pre-SoA layout) must load and
// answer exactly like the index that would have written it.
func TestV1BlobLoadsBitIdentical(t *testing.T) {
	keys, vals := genDataset(3000, 101)
	for name, build := range map[string]func() (*Index1D, error){
		"count": func() (*Index1D, error) {
			return BuildCount(keys, Options{Degree: 2, Delta: 4, NoFallback: true, Encoding: EncRaw})
		},
		"max": func() (*Index1D, error) {
			return BuildMax(keys, vals, Options{Degree: 2, Delta: 40, NoFallback: true, Encoding: EncRaw})
		},
	} {
		orig, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var loaded Index1D
		if err := loaded.UnmarshalBinary(marshalV1(t, orig)); err != nil {
			t.Fatalf("%s: v1 blob rejected: %v", name, err)
		}
		if loaded.Encoding() != EncRaw {
			t.Fatalf("%s: v1 blob must land on the raw encoding, got %v", name, loaded.Encoding())
		}
		if loaded.NumSegments() != orig.NumSegments() || loaded.Len() != orig.Len() {
			t.Fatalf("%s: metadata mismatch after v1 load", name)
		}
		rng := rand.New(rand.NewSource(102))
		lo, hi := keys[0], keys[len(keys)-1]
		for q := 0; q < 500; q++ {
			l := lo - 5 + rng.Float64()*(hi-lo+10)
			u := l + rng.Float64()*(hi-lo)/4
			if orig.agg == Count {
				a, _ := orig.RangeSum(l, u)
				b, _ := loaded.RangeSum(l, u)
				if a != b {
					t.Fatalf("%s: v1-loaded answer differs: %g vs %g", name, a, b)
				}
			} else {
				a, okA, _ := orig.RangeExtremum(l, u)
				b, okB, _ := loaded.RangeExtremum(l, u)
				if okA != okB || (okA && a != b) {
					t.Fatalf("%s: v1-loaded extremum differs: (%g,%v) vs (%g,%v)", name, a, okA, b, okB)
				}
			}
		}
	}
}

// TestOldContainerVersionsLoad: POLD v3 (no tail run), POLD v2 (no
// encoding-mode byte either) and POLS v1 containers must still restore and
// answer identically. The transforms reverse exactly what the version
// bumps added: POLD v4 inserted the tail run's count (zero for an empty
// tail) just before the base blob's length, POLD v3 inserted one byte at
// offset 9, POLS v2 changed nothing but the version. The dynamic index
// buffers exactly tailCap records, which have merged into its main run, so
// the old blobs carry them as their one buffer.
func TestOldContainerVersionsLoad(t *testing.T) {
	keys, vals := genDataset(2500, 117)
	dyn, err := NewDynamic(Sum, keys, vals, Options{Delta: 8, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	buffered := make([]float64, tailCap)
	for i := range buffered {
		buffered[i] = 3e6 + float64(i)/3
	}
	for _, err := range dyn.InsertBatch(buffered, buffered) {
		if err != nil {
			t.Fatal(err)
		}
	}
	v4, err := dyn.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	baseBlob, err := dyn.Base().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tailAt := len(v4) - len(baseBlob) - 16 // tail count, then base length
	v3 := append(append([]byte(nil), v4[:tailAt]...), v4[tailAt+8:]...)
	binary.LittleEndian.PutUint16(v3[4:], 3)
	v2 := append(append([]byte(nil), v3[:9]...), v3[10:]...) // drop the encoding byte
	binary.LittleEndian.PutUint16(v2[4:], 2)
	var oldDyns []*Dynamic1D
	for ver, blob := range map[int][]byte{3: v3, 2: v2} {
		old, err := RestoreDynamic(blob)
		if err != nil {
			t.Fatalf("POLD v%d blob rejected: %v", ver, err)
		}
		if old.BufferLen() != tailCap {
			t.Fatalf("POLD v%d blob restored %d buffered records, want %d", ver, old.BufferLen(), tailCap)
		}
		oldDyns = append(oldDyns, old)
	}

	sharded, err := BuildSharded(Sum, keys, vals, 3, Options{Delta: 8, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sharded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sv1 := append([]byte(nil), sb...)
	binary.LittleEndian.PutUint16(sv1[4:], 1)
	var oldSharded Sharded1D
	if err := oldSharded.UnmarshalBinary(sv1); err != nil {
		t.Fatalf("POLS v1 blob rejected: %v", err)
	}

	rng := rand.New(rand.NewSource(118))
	all := append(append([]float64(nil), keys...), buffered...)
	for q := 0; q < 300; q++ {
		l := all[rng.Intn(len(all))]
		u := all[rng.Intn(len(all))]
		if l > u {
			l, u = u, l
		}
		want, err := dyn.RangeSum(l, u)
		if err != nil {
			t.Fatal(err)
		}
		for _, old := range oldDyns {
			if got, _ := old.RangeSum(l, u); got != want {
				t.Fatalf("POLD v2/v3-loaded answer differs at (%g, %g]: %g vs %g", l, u, got, want)
			}
		}
		ws, _, err := sharded.sum(l, u)
		if err != nil {
			t.Fatal(err)
		}
		if gs, _, _ := oldSharded.sum(l, u); gs != ws {
			t.Fatalf("POLS v1-loaded answer differs at (%g, %g]: %g vs %g", l, u, gs, ws)
		}
	}
}

// TestRawLanesMatchAoSEvaluation pins the structure-of-arrays refactor to the
// pre-refactor semantics: evaluating the padded coefficient lanes must be
// bit-identical to the historical per-segment FramedPoly evaluation (trimmed
// Horner over frame-normalised keys) at every indexed key and boundary.
func TestRawLanesMatchAoSEvaluation(t *testing.T) {
	keys, _ := genDataset(5000, 103)
	ix, err := BuildCount(keys, Options{Degree: 3, Delta: 3, NoFallback: true, Encoding: EncRaw})
	if err != nil {
		t.Fatal(err)
	}
	probe := func(k float64) {
		i := ix.locate(k)
		x := k
		if x > ix.segHi[i] {
			x = ix.segHi[i]
		}
		fp := ix.framedPolyAt(i) // trimmed poly + frame: the AoS layout
		want := fp.P.Eval(fp.F.Normalize(x))
		if got := ix.CF(k); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("CF(%v) = %v via lanes, %v via AoS polynomial", k, got, want)
		}
	}
	for _, k := range keys {
		probe(k)
	}
	for i := 0; i < ix.NumSegments(); i++ {
		probe(ix.segLo[i])
		probe(ix.segHi[i])
	}
}

// TestEncodingRoundTrip: every encoding must survive Marshal/Unmarshal with
// the encoding preserved and answers bit-identical.
func TestEncodingRoundTrip(t *testing.T) {
	keys, _ := genDataset(20000, 105)
	for _, enc := range []Encoding{EncAuto, EncRaw, EncF32, EncPacked} {
		orig, err := BuildCount(keys, Options{Degree: 2, Delta: 2, NoFallback: true, Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := orig.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var loaded Index1D
		if err := loaded.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if loaded.Encoding() != orig.Encoding() {
			t.Fatalf("%v: encoding not preserved: %v vs %v", enc, loaded.Encoding(), orig.Encoding())
		}
		if loaded.SizeBytes() != orig.SizeBytes() || loaded.NumSegments() != orig.NumSegments() {
			t.Fatalf("%v: size/segment metadata changed across round trip", enc)
		}
		rng := rand.New(rand.NewSource(106))
		lo, hi := keys[0], keys[len(keys)-1]
		for q := 0; q < 1000; q++ {
			k := lo - 10 + rng.Float64()*(hi-lo+20)
			if a, b := orig.CF(k), loaded.CF(k); a != b {
				t.Fatalf("%v: CF(%v) diverges after round trip: %v vs %v", enc, k, a, b)
			}
		}
	}
}

// TestForcedEncodingsCertify: a forced compressed encoding must still honour
// the δ guarantee (certifying, or falling back to a heavier encoding when it
// cannot), for COUNT and SUM.
func TestForcedEncodingsCertify(t *testing.T) {
	keys, vals := genDataset(8000, 107)
	exactCount := func(l, u float64) float64 {
		c := 0.0
		for _, k := range keys {
			if k > l && k <= u {
				c++
			}
		}
		return c
	}
	for _, enc := range []Encoding{EncAuto, EncRaw, EncF32, EncPacked} {
		delta := 5.0
		ix, err := BuildCount(keys, Options{Degree: 2, Delta: delta, NoFallback: true, Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Delta() != delta {
			t.Fatalf("%v: certified delta changed: %g", enc, ix.Delta())
		}
		rng := rand.New(rand.NewSource(108))
		for q := 0; q < 400; q++ {
			l := keys[rng.Intn(len(keys))]
			u := keys[rng.Intn(len(keys))]
			if l > u {
				l, u = u, l
			}
			got, _ := ix.RangeSum(l, u)
			want := exactCount(l, u)
			if math.Abs(got-want) > 2*delta+1e-9 {
				t.Fatalf("%v: |%g - %g| > 2δ at (%g, %g]", enc, got, want, l, u)
			}
		}
	}
	// MIN/MAX must refuse the packed encoding and still build correctly.
	ix, err := BuildMax(keys, vals, Options{Degree: 2, Delta: 30, NoFallback: true, Encoding: EncPacked})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Encoding() == EncPacked {
		t.Fatal("extremum index must not adopt the packed encoding")
	}
}

// TestLocatePackedMatchesReference: the packed integer-grid locate (two-level
// root included) must agree with the binary-search reference on uniform and
// skewed key distributions, at boundaries, grid edges, and out-of-domain
// probes.
func TestLocatePackedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	datasets := map[string][]float64{}
	uniform := make([]float64, 30000)
	k := 0.0
	for i := range uniform {
		k += 0.5 + rng.Float64()
		uniform[i] = k
	}
	datasets["uniform"] = uniform
	// Skewed: long stretches of dense keys then sparse tails — boundaries
	// pile into few root buckets and exercise the second root level.
	skewed := make([]float64, 30000)
	k = 0.0
	for i := range skewed {
		if i%1000 < 900 {
			k += 0.01 + rng.Float64()*0.01
		} else {
			k += 50 + rng.Float64()*100
		}
		skewed[i] = k
	}
	datasets["skewed"] = skewed

	for name, keys := range datasets {
		ix, err := BuildCount(keys, Options{Degree: 2, Delta: 1, NoFallback: true, Encoding: EncPacked})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Encoding() != EncPacked {
			t.Skipf("%s: packed did not certify on this distribution (enc=%v)", name, ix.Encoding())
		}
		h := ix.NumSegments()
		lo, hi := keys[0], keys[len(keys)-1]
		probes := make([]float64, 0, 8000)
		for i := 0; i < 4000; i++ {
			probes = append(probes, lo+rng.Float64()*(hi-lo))
		}
		for i := 0; i < h; i += 7 {
			b := ix.loAt(i)
			probes = append(probes, b, b-1e-9, b+1e-9, ix.hiAt(i))
		}
		probes = append(probes, lo-1e6, lo, hi, hi+1e6, ix.keyLo, ix.keyHi)
		for _, p := range probes {
			if got, want := ix.Locate(p), ix.LocateBinary(p); got != want {
				t.Fatalf("%s: packed Locate(%v) = %d, binary = %d", name, p, got, want)
			}
		}
	}
}

// TestTwoLevelRootEngages: a clustered distribution that overfills level-1
// buckets must grow second-level tables (not fall back to binary search), and
// locate must stay correct through them.
func TestTwoLevelRootEngages(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	keys := make([]float64, 0, 40000)
	k := 0.0
	for len(keys) < 40000 {
		// Dense bursts force many segment starts into key slivers while the
		// jumps stretch the root span, so level-1 buckets overfill.
		for i := 0; i < 2000 && len(keys) < 40000; i++ {
			k += rng.Float64() * 1e-3
			keys = append(keys, k)
		}
		k += 1e5 + rng.Float64()*1e5
	}
	ix := buildCountOver(t, keys, Options{Degree: 2, Delta: 1, NoFallback: true, Encoding: EncRaw})
	if ix.NumSegments() < 64 {
		t.Skipf("too few segments (%d) to stress the root", ix.NumSegments())
	}
	if len(ix.rootSubs) == 0 {
		t.Fatal("clustered boundaries should overfill level-1 buckets and grow second-level tables")
	}
	if rb := ix.RootSizeBytes(); rb <= 4*len(ix.rootTable) {
		t.Fatalf("RootSizeBytes (%d) must account for the second level", rb)
	}
	for q := 0; q < 5000; q++ {
		p := keys[0] + rng.Float64()*(keys[len(keys)-1]-keys[0])
		if got, want := ix.Locate(p), ix.LocateBinary(p); got != want {
			t.Fatalf("two-level locate(%v) = %d, want %d", p, got, want)
		}
	}
}

// TestPackedBlobCorruption: tampered or truncated packed blobs must return
// ErrBadFormat — never panic, never silently decode.
func TestPackedBlobCorruption(t *testing.T) {
	keys, _ := genDataset(20000, 113)
	ix, err := BuildCount(keys, Options{Degree: 2, Delta: 2, NoFallback: true, Encoding: EncPacked})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Encoding() != EncPacked {
		t.Fatalf("expected packed encoding, got %v", ix.Encoding())
	}
	blob, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var ok Index1D
	if err := ok.UnmarshalBinary(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}

	// The encoding byte sits right after the fixed header and segment count.
	encOff := 4 + 2 + 1 + 1 + 4 + 8 + 8 + 8 + 8 + 8 + 4
	if Encoding(blob[encOff]) != EncPacked {
		t.Fatalf("encoding byte not at offset %d", encOff)
	}
	mutate := func(name string, f func(b []byte) []byte) {
		bad := f(append([]byte(nil), blob...))
		var target Index1D
		if err := target.UnmarshalBinary(bad); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: want ErrBadFormat, got %v", name, err)
		}
	}
	mutate("tampered encoding byte", func(b []byte) []byte {
		b[encOff] = 0xEE
		return b
	})
	mutate("encoding byte set to auto", func(b []byte) []byte {
		b[encOff] = uint8(EncAuto)
		return b
	})
	mutate("truncated coefficient lanes", func(b []byte) []byte {
		return b[:len(b)-len(b)/3]
	})
	mutate("truncated grid starts", func(b []byte) []byte {
		return b[:encOff+3+8+2]
	})
	mutate("oversized lane count", func(b []byte) []byte {
		binary.LittleEndian.PutUint16(b[encOff+1:], 60000)
		return b
	})
	mutate("bad lane width byte", func(b []byte) []byte {
		h := ix.NumSegments()
		// First lane header follows keyStep and the h grid starts.
		off := encOff + 1 + 2 + 8 + 4*h
		b[off] = 3
		return b
	})
	mutate("non-increasing grid starts", func(b []byte) []byte {
		off := encOff + 1 + 2 + 8 // first loQ entry
		binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b[off+4:]))
		copy(b[off:], b[:4])
		binary.LittleEndian.PutUint32(b[off:], binary.LittleEndian.Uint32(b[off+4:]))
		return b
	})
	mutate("zero key step", func(b []byte) []byte {
		off := encOff + 1 + 2
		binary.LittleEndian.PutUint64(b[off:], 0)
		return b
	})
}

// TestShavedRefitKeepsDelta: when the packed encoding goes through the shaved
// re-segmentation, the certified, user-visible δ must be unchanged and the
// guarantee must hold at the original δ.
func TestShavedRefitKeepsDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	keys := make([]float64, 50000)
	k := 0.0
	for i := range keys {
		k += rng.Float64() + 0.01
		keys[i] = k
	}
	delta := 1.0
	ix, err := BuildCount(keys, Options{Degree: 2, Delta: delta, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Delta() != delta {
		t.Fatalf("user-visible delta changed: %g", ix.Delta())
	}
	if ix.Encoding() != EncPacked {
		t.Skipf("packed did not certify (enc=%v); refit path not exercised", ix.Encoding())
	}
	for q := 0; q < 500; q++ {
		i := rng.Intn(len(keys) - 1)
		j := i + rng.Intn(len(keys)-i)
		got, _ := ix.RangeSum(keys[i], keys[j])
		want := float64(j - i)
		if math.Abs(got-want) > 2*delta+1e-9 {
			t.Fatalf("|%g - %g| > 2δ on (%g, %g]", got, want, keys[i], keys[j])
		}
	}
}
