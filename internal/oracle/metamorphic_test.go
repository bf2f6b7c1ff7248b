package oracle

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
)

// Metamorphic properties: relations between answers that must hold without
// consulting any oracle — range additivity, monotonicity of COUNT, and
// shard-transparency (a sharded index answering a shard-interior range
// bitwise-identically to an unsharded index built over just that chunk).

// TestMetamorphicAdditivity: Q(l,u) = Q(l,m) + Q(m,u) for COUNT/SUM. For
// CF-based answers the identity telescopes, so the defect is far below the
// 2δ the composed guarantees allow; asserted at 2δ plus float slack.
func TestMetamorphicAdditivity(t *testing.T) {
	seed := harnessSeed(t)
	keys, measures := Uniform(2000, seed)
	const delta = 30.0
	static, err := core.BuildSum(keys, measures, core.Options{Delta: delta, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.BuildSharded(core.Sum, keys, measures, 4, core.Options{Delta: delta, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for q := 0; q < 500; q++ {
		idx := []int{rng.Intn(len(keys)), rng.Intn(len(keys)), rng.Intn(len(keys))}
		sort.Ints(idx)
		l, m, u := keys[idx[0]], keys[idx[1]], keys[idx[2]]
		whole, err := static.RangeSum(l, u)
		if err != nil {
			t.Fatal(err)
		}
		left, _ := static.RangeSum(l, m)
		right, _ := static.RangeSum(m, u)
		if d := math.Abs(whole - (left + right)); d > 2*delta+1e-9*(1+math.Abs(whole)) {
			t.Fatalf("static additivity: |%g − (%g + %g)| = %g > 2δ", whole, left, right, d)
		}
		sw, _, err := engineSum(&sharded.Engine)(l, u)
		if err != nil {
			t.Fatal(err)
		}
		sl, _, _ := engineSum(&sharded.Engine)(l, m)
		sr, _, _ := engineSum(&sharded.Engine)(m, u)
		if d := math.Abs(sw - (sl + sr)); d > 2*delta+1e-9*(1+math.Abs(sw)) {
			t.Fatalf("sharded additivity: |%g − (%g + %g)| = %g > 2δ", sw, sl, sr, d)
		}
	}
}

// TestMetamorphicCountMonotone: the COUNT estimate is monotone in the
// upper endpoint up to 2δ — CF evaluations are each within δ of the truly
// monotone cumulative count, so est(l,u2) ≥ est(l,u1) − 2δ for u1 ≤ u2.
func TestMetamorphicCountMonotone(t *testing.T) {
	seed := harnessSeed(t)
	keys, _ := Zipf(2000, seed)
	const delta = 20.0
	static, err := core.BuildCount(keys, core.Options{Delta: delta, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.BuildSharded(core.Count, keys, nil, 4, core.Options{Delta: delta, NoFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 2))
	for q := 0; q < 200; q++ {
		li := rng.Intn(len(keys))
		l := keys[li]
		prevS, prevSh := math.Inf(-1), math.Inf(-1)
		// Walk an ascending sample of upper endpoints.
		for ui := li; ui < len(keys); ui += 1 + rng.Intn(97) {
			u := keys[ui]
			v, err := static.RangeSum(l, u)
			if err != nil {
				t.Fatal(err)
			}
			if v < prevS-2*delta-1e-9 {
				t.Fatalf("static COUNT not 2δ-monotone at (%g,%g]: %g after %g", l, u, v, prevS)
			}
			prevS = math.Max(prevS, v)
			sv, _, err := engineSum(&sharded.Engine)(l, u)
			if err != nil {
				t.Fatal(err)
			}
			// The sharded bound composes: monotonicity holds to 2δ per
			// touched shard transition; 2δ·K is the loose uniform envelope.
			if sv < prevSh-2*delta*float64(sharded.NumShards())-1e-9 {
				t.Fatalf("sharded COUNT not monotone at (%g,%g]: %g after %g", l, u, sv, prevSh)
			}
			prevSh = math.Max(prevSh, sv)
		}
	}
}

// TestMetamorphicShardTransparency: for a range strictly interior to one
// shard, the sharded scatter-gather answer must agree BITWISE with an
// unsharded index built over exactly that shard's chunk — proving the
// gather adds no perturbation (no spurious contributions from other
// shards, no reordering of float accumulation).
func TestMetamorphicShardTransparency(t *testing.T) {
	seed := harnessSeed(t)
	keys, measures := Clustered(2400, seed)
	opt := core.Options{Delta: 25, NoFallback: true}
	for _, agg := range []core.Agg{core.Count, core.Sum, core.Max, core.Min} {
		sharded, err := core.BuildSharded(agg, keys, measures, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		bounds := sharded.Bounds()
		// Reconstruct each shard's chunk and build an unsharded index on it.
		starts := []int{0}
		for _, b := range bounds {
			starts = append(starts, sort.SearchFloat64s(keys, b))
		}
		starts = append(starts, len(keys))
		rng := rand.New(rand.NewSource(seed + int64(agg)))
		for sh := 0; sh < 4; sh++ {
			lo, hi := starts[sh], starts[sh+1]
			chunkK, chunkM := keys[lo:hi], measures[lo:hi]
			plain, err := buildStatic(agg, chunkK, chunkM, opt)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 100; q++ {
				// Strictly interior endpoints: skip the chunk's first key so
				// the range cannot touch the routing boundary itself.
				if hi-lo < 3 {
					break
				}
				i := 1 + rng.Intn(hi-lo-1)
				j := 1 + rng.Intn(hi-lo-1)
				if i > j {
					i, j = j, i
				}
				lq, uq := chunkK[i], chunkK[j]
				switch agg {
				case core.Count, core.Sum:
					want, err := plain.RangeSum(lq, uq)
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := engineSum(&sharded.Engine)(lq, uq)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v shard %d (%g,%g]: sharded %g != unsharded %g (bitwise)",
							agg, sh, lq, uq, got, want)
					}
				default:
					want, wok, err := plain.RangeExtremum(lq, uq)
					if err != nil {
						t.Fatal(err)
					}
					got, _, gok, err := engineExt(&sharded.Engine)(lq, uq)
					if err != nil {
						t.Fatal(err)
					}
					if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v shard %d [%g,%g]: sharded %g/%v != unsharded %g/%v",
							agg, sh, lq, uq, got, gok, want, wok)
					}
				}
			}
		}
	}
}
