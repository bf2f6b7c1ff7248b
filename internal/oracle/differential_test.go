package oracle

import (
	"context"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
)

// harnessSeed resolves the randomized-harness seed: fixed by default (CI
// reproducibility), ORACLE_SEED=random draws a fresh one and logs it so a
// failure names the seed to replay, ORACLE_SEED=<int> replays one.
func harnessSeed(t *testing.T) int64 {
	switch v := os.Getenv("ORACLE_SEED"); v {
	case "":
		return 0x5EED
	case "random":
		s := time.Now().UnixNano()
		t.Logf("ORACLE_SEED=random resolved to %d (re-run with ORACLE_SEED=%d to replay)", s, s)
		return s
	default:
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad ORACLE_SEED %q: %v", v, err)
		}
		return s
	}
}

const (
	diffEpsAbs  = 60.0 // εabs the subjects are built for
	diffN       = 2400 // records per distribution
	diffQueries = 900  // random ranges per subject
)

// subject adapts one index variant to the harness: est and the certified
// absolute bound per query. sum answers COUNT/SUM over (l, u], ext answers
// MAX/MIN over [l, u].
type subject struct {
	name string
	sum  func(l, u float64) (est, bound float64, err error)
	ext  func(l, u float64) (est, bound float64, ok bool, err error)
	// endpoints are the workload endpoints the guarantee covers (the keys
	// the subject's polynomial fit actually sampled — for dynamic subjects
	// before a rebuild that is the base key set, not buffered inserts).
	endpoints []float64
}

// buildStatic dispatches a plain Index1D build for the aggregate. With
// εabs = diffEpsAbs, the plain bound is diffEpsAbs for every aggregate
// (2·(εabs/2) for COUNT/SUM, δ = εabs for MIN/MAX).
func buildStatic(agg core.Agg, keys, measures []float64, opt core.Options) (*core.Index1D, error) {
	switch agg {
	case core.Count:
		return core.BuildCount(keys, opt)
	case core.Sum:
		return core.BuildSum(keys, measures, opt)
	case core.Max:
		return core.BuildMax(keys, measures, opt)
	default:
		return core.BuildMin(keys, measures, opt)
	}
}

// engineSum and engineExt query a sharded index's engine in the subject's
// (estimate, bound) shape.
func engineSum(e *core.Engine) func(l, u float64) (float64, float64, error) {
	return func(l, u float64) (float64, float64, error) {
		r, err := e.Query(context.Background(), core.Range{Lo: l, Hi: u})
		return r.Value, r.Bound, err
	}
}

func engineExt(e *core.Engine) func(l, u float64) (float64, float64, bool, error) {
	return func(l, u float64) (float64, float64, bool, error) {
		r, err := e.Query(context.Background(), core.Range{Lo: l, Hi: u})
		return r.Value, r.Bound, r.Found, err
	}
}

// buildSubjects constructs the static, dynamic, sharded, and
// sharded-dynamic variants of one aggregate over the same dataset. Dynamic
// variants are built over ~80% of the records and the rest is inserted.
func buildSubjects(t *testing.T, agg core.Agg, keys, measures []float64) []subject {
	t.Helper()
	opt := core.Options{Delta: core.DeltaForAbs(agg, diffEpsAbs), NoFallback: true}
	var baseK, baseM, insK, insM []float64
	for i := range keys {
		if i%5 == 3 {
			insK = append(insK, keys[i])
			insM = append(insM, measures[i])
		} else {
			baseK = append(baseK, keys[i])
			baseM = append(baseM, measures[i])
		}
	}
	var subjects []subject

	static, err := buildStatic(agg, keys, measures, opt)
	if err != nil {
		t.Fatalf("static build: %v", err)
	}
	subjects = append(subjects, subject{
		name: "static", endpoints: keys,
		sum: func(l, u float64) (float64, float64, error) {
			v, err := static.RangeSum(l, u)
			return v, diffEpsAbs, err
		},
		ext: func(l, u float64) (float64, float64, bool, error) {
			v, ok, err := static.RangeExtremum(l, u)
			return v, diffEpsAbs, ok, err
		},
	})

	dyn, err := core.NewDynamic(agg, baseK, baseM, opt)
	if err != nil {
		t.Fatalf("dynamic build: %v", err)
	}
	for i := range insK {
		if err := dyn.Insert(insK[i], insM[i]); err != nil {
			t.Fatalf("dynamic insert %g: %v", insK[i], err)
		}
	}
	subjects = append(subjects, subject{
		name: "dynamic", endpoints: baseK,
		sum: func(l, u float64) (float64, float64, error) {
			v, err := dyn.RangeSum(l, u)
			return v, diffEpsAbs, err
		},
		ext: func(l, u float64) (float64, float64, bool, error) {
			v, ok, err := dyn.RangeExtremum(l, u)
			return v, diffEpsAbs, ok, err
		},
	})

	sharded, err := core.BuildSharded(agg, keys, measures, 4, opt)
	if err != nil {
		t.Fatalf("sharded build: %v", err)
	}
	subjects = append(subjects, subject{
		name: "sharded4", endpoints: keys,
		sum: engineSum(&sharded.Engine),
		ext: engineExt(&sharded.Engine),
	})

	sdyn, err := core.NewShardedDynamic(agg, baseK, baseM, 4, opt)
	if err != nil {
		t.Fatalf("sharded dynamic build: %v", err)
	}
	for i := range insK {
		if err := sdyn.Insert(insK[i], insM[i]); err != nil {
			t.Fatalf("sharded dynamic insert %g: %v", insK[i], err)
		}
	}
	subjects = append(subjects, subject{
		name: "sharded4-dynamic", endpoints: baseK,
		sum: engineSum(&sdyn.Engine),
		ext: engineExt(&sdyn.Engine),
	})
	return subjects
}

// TestDifferentialGuarantee is the oracle harness of the repo's accuracy
// contract: for every aggregate × index variant × key distribution, every
// estimate over thousands of random workload ranges is checked against the
// exact oracle.
//
//   - COUNT/SUM: |est − exact| ≤ εabs, two-sided and strict (εabs composed
//     per touched shard when sharded).
//   - MAX/MIN: the sandwich lower ≤ exact ≤ upper, where the covering side
//     (upper = est + δ for MAX, lower = est − δ for MIN) is strict — the
//     index never misses the true extremum by more than δ — and the other
//     side carries the documented between-sample slack (DESIGN.md §3.3,
//     TestMaxGuarantee): the polynomial max over a continuous clipped
//     interval can slightly exceed the sample-level bound, so it is
//     asserted hard at 2δ and overshoots beyond δ must stay rare (≤2.5%).
func TestDifferentialGuarantee(t *testing.T) {
	seed := harnessSeed(t)
	for _, dist := range Distributions {
		keys, measures := dist.Gen(diffN, seed)
		o, err := New(keys, measures)
		if err != nil {
			t.Fatalf("%s: oracle: %v", dist.Name, err)
		}
		for _, agg := range []core.Agg{core.Count, core.Sum, core.Max, core.Min} {
			agg := agg
			t.Run(dist.Name+"/"+agg.String(), func(t *testing.T) {
				for _, sub := range buildSubjects(t, agg, keys, measures) {
					rng := rand.New(rand.NewSource(seed ^ int64(agg)<<8))
					eps := sub.endpoints
					overshoots := 0
					for q := 0; q < diffQueries; q++ {
						i, j := rng.Intn(len(eps)), rng.Intn(len(eps))
						if i > j {
							i, j = j, i
						}
						lq, uq := eps[i], eps[j]
						if q%50 == 0 {
							// Out-of-domain and full-span edges.
							lq, uq = eps[0]-1e6, eps[len(eps)-1]+1e6
						}
						switch agg {
						case core.Count, core.Sum:
							est, bound, err := sub.sum(lq, uq)
							if err != nil {
								t.Fatalf("%s: %v", sub.name, err)
							}
							exact := o.Count(lq, uq)
							if agg == core.Sum {
								exact = o.Sum(lq, uq)
							}
							if slack := 1e-9 * (1 + math.Abs(exact)); math.Abs(est-exact) > bound+slack {
								t.Fatalf("%s %v (%g,%g]: |%g − %g| = %g > bound %g",
									sub.name, agg, lq, uq, est, exact, math.Abs(est-exact), bound)
							}
						case core.Max, core.Min:
							est, bound, ok, err := sub.ext(lq, uq)
							if err != nil {
								t.Fatalf("%s: %v", sub.name, err)
							}
							exact, eok := o.Max(lq, uq)
							if agg == core.Min {
								exact, eok = o.Min(lq, uq)
							}
							if ok != eok {
								t.Fatalf("%s %v [%g,%g]: found=%v, oracle found=%v",
									sub.name, agg, lq, uq, ok, eok)
							}
							if !ok {
								continue
							}
							// Work in MAX space so MIN shares the assertions.
							estM, exactM := est, exact
							if agg == core.Min {
								estM, exactM = -est, -exact
							}
							slack := 1e-9 * (1 + math.Abs(exact))
							if estM < exactM-bound-slack {
								t.Fatalf("%s %v [%g,%g]: est %g misses exact %g by more than δ=%g",
									sub.name, agg, lq, uq, est, exact, bound)
							}
							if estM > exactM+bound+slack {
								overshoots++
								if estM > exactM+2*bound+slack {
									t.Fatalf("%s %v [%g,%g]: est %g overshoots exact %g beyond 2δ=%g",
										sub.name, agg, lq, uq, est, exact, 2*bound)
								}
							}
						}
					}
					if limit := diffQueries / 40; overshoots > limit {
						t.Fatalf("%s %v: %d/%d extremum overshoots beyond δ (limit %d)",
							sub.name, agg, overshoots, diffQueries, limit)
					}
				}
			})
		}
	}
}

// TestDifferentialEncodingSweep re-runs the accuracy contract for every
// forced coefficient encoding × aggregate × distribution: compressing the
// lanes must never weaken the certified bound. A forced encoding the build
// cannot certify falls back to a heavier one (packed always does for
// MIN/MAX), so the achieved encoding is logged — the guarantee must hold
// either way. Raw-lane bit-identity with the pre-refactor per-segment
// layout is pinned separately in core (TestRawLanesMatchAoSEvaluation).
func TestDifferentialEncodingSweep(t *testing.T) {
	seed := harnessSeed(t)
	for _, dist := range Distributions {
		keys, measures := dist.Gen(diffN, seed)
		o, err := New(keys, measures)
		if err != nil {
			t.Fatalf("%s: oracle: %v", dist.Name, err)
		}
		for _, agg := range []core.Agg{core.Count, core.Sum, core.Max, core.Min} {
			for _, enc := range []core.Encoding{core.EncRaw, core.EncF32, core.EncPacked} {
				agg, enc := agg, enc
				t.Run(dist.Name+"/"+agg.String()+"/"+enc.String(), func(t *testing.T) {
					opt := core.Options{
						Delta: core.DeltaForAbs(agg, diffEpsAbs), NoFallback: true, Encoding: enc,
					}
					ix, err := buildStatic(agg, keys, measures, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got := ix.Encoding(); got != enc {
						t.Logf("requested %v, certified %v", enc, got)
					}
					rng := rand.New(rand.NewSource(seed ^ int64(agg)<<8 ^ int64(enc)<<16))
					for q := 0; q < diffQueries/2; q++ {
						i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
						if i > j {
							i, j = j, i
						}
						lq, uq := keys[i], keys[j]
						if q%50 == 0 {
							lq, uq = keys[0]-1e6, keys[len(keys)-1]+1e6
						}
						switch agg {
						case core.Count, core.Sum:
							est, err := ix.RangeSum(lq, uq)
							if err != nil {
								t.Fatal(err)
							}
							exact := o.Count(lq, uq)
							if agg == core.Sum {
								exact = o.Sum(lq, uq)
							}
							if slack := 1e-9 * (1 + math.Abs(exact)); math.Abs(est-exact) > diffEpsAbs+slack {
								t.Fatalf("%v/%v (%g,%g]: |%g − %g| = %g > εabs %g",
									agg, enc, lq, uq, est, exact, math.Abs(est-exact), diffEpsAbs)
							}
						case core.Max, core.Min:
							est, ok, err := ix.RangeExtremum(lq, uq)
							if err != nil {
								t.Fatal(err)
							}
							exact, eok := o.Max(lq, uq)
							if agg == core.Min {
								exact, eok = o.Min(lq, uq)
							}
							if ok != eok {
								t.Fatalf("%v/%v [%g,%g]: found=%v, oracle found=%v", agg, enc, lq, uq, ok, eok)
							}
							if !ok {
								continue
							}
							estM, exactM := est, exact
							if agg == core.Min {
								estM, exactM = -est, -exact
							}
							slack := 1e-9 * (1 + math.Abs(exact))
							if estM < exactM-diffEpsAbs-slack || estM > exactM+2*diffEpsAbs+slack {
								t.Fatalf("%v/%v [%g,%g]: exact %g vs est %g ± %g",
									agg, enc, lq, uq, exact, est, diffEpsAbs)
							}
						}
					}
				})
			}
		}
	}
}

// TestDifferentialAfterRebuild re-runs the guarantee for dynamic subjects
// after a full merge-rebuild, when every key (including the inserted ones)
// is a fitted sample and therefore a covered workload endpoint.
func TestDifferentialAfterRebuild(t *testing.T) {
	seed := harnessSeed(t)
	keys, measures := Clustered(diffN, seed)
	o, err := New(keys, measures)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []core.Agg{core.Count, core.Sum, core.Max, core.Min} {
		opt := core.Options{Delta: core.DeltaForAbs(agg, diffEpsAbs), NoFallback: true}
		sdyn, err := core.NewShardedDynamic(agg, keys[:2000], measures[:2000], 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 2000; i < len(keys); i++ {
			if err := sdyn.Insert(keys[i], measures[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sdyn.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if sdyn.BufferLen() != 0 {
			t.Fatalf("buffer not folded: %d", sdyn.BufferLen())
		}
		rng := rand.New(rand.NewSource(seed + int64(agg)))
		for q := 0; q < diffQueries/2; q++ {
			i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
			if i > j {
				i, j = j, i
			}
			lq, uq := keys[i], keys[j]
			switch agg {
			case core.Count, core.Sum:
				est, bound, err := engineSum(&sdyn.Engine)(lq, uq)
				if err != nil {
					t.Fatal(err)
				}
				exact := o.Count(lq, uq)
				if agg == core.Sum {
					exact = o.Sum(lq, uq)
				}
				if math.Abs(est-exact) > bound+1e-9*(1+math.Abs(exact)) {
					t.Fatalf("%v (%g,%g]: |%g − %g| > %g", agg, lq, uq, est, exact, bound)
				}
			default:
				est, bound, ok, err := engineExt(&sdyn.Engine)(lq, uq)
				if err != nil {
					t.Fatal(err)
				}
				exact, eok := o.Max(lq, uq)
				if agg == core.Min {
					exact, eok = o.Min(lq, uq)
				}
				if ok != eok {
					t.Fatalf("%v [%g,%g]: found=%v, oracle=%v", agg, lq, uq, ok, eok)
				}
				if !ok {
					continue
				}
				estM, exactM := est, exact
				if agg == core.Min {
					estM, exactM = -est, -exact
				}
				// Covering side strict, overshoot side at the documented 2δ.
				if estM < exactM-bound-1e-9 || estM > exactM+2*bound+1e-9 {
					t.Fatalf("%v [%g,%g]: exact %g vs est %g ± %g", agg, lq, uq, exact, est, bound)
				}
			}
		}
	}
}
