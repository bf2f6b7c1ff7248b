// Geo count: two-key COUNT queries (Section VI) over OSM-like coordinates.
// Builds the quadtree-of-surfaces index, renders a world heat grid from the
// index alone, and verifies Lemma 6's absolute guarantee on uniform
// rectangles against the exact aR-tree answer.
package main

import (
	"fmt"
	"math"
	"time"

	polyfit "repro"
	"repro/internal/data"
)

func main() {
	xs, ys := data.GenOSM(300_000, 5)
	fmt.Printf("OSM-like points: %d over lon [-180,180] x lat [-90,90]\n", len(xs))

	start := time.Now()
	ix, err := polyfit.NewCount2DIndex(xs, ys, polyfit.Options2D{EpsAbs: 1000})
	if err != nil {
		panic(err)
	}
	st := ix.Stats()
	fmt.Printf("built in %v: %d leaves, depth %d, %d KB (+%d KB exact fallback)\n\n",
		time.Since(start).Round(time.Millisecond), st.Leaves, st.Depth,
		st.IndexBytes/1024, st.FallbackBytes/1024)

	// World heat grid straight from the index (18 x 9 cells of 20°x20°).
	fmt.Println("world density grid (index estimates, '.'<1k '+'<5k '#'>=5k):")
	for lat := 90.0; lat > -90; lat -= 20 {
		fmt.Print("  ")
		for lon := -180.0; lon < 180; lon += 20 {
			res, _ := ix.Query(lon, lon+20, lat-20, lat)
			switch {
			case res.Value >= 5000:
				fmt.Print("#")
			case res.Value >= 1000:
				fmt.Print("+")
			default:
				fmt.Print(".")
			}
		}
		fmt.Println()
	}

	// Guarantee verification on the paper's uniform-rectangle workload. The
	// 2D index reports the same certified Result.Bound as the 1D variants
	// (4δ = εabs per Lemma 6), so the check reads the bound off each answer.
	qs := data.UniformRects(-180, 180, -90, 90, 500, 6)
	worst, within := 0.0, 0
	for _, q := range qs {
		got, _ := ix.Query(q.XLo, q.XHi, q.YLo, q.YHi)
		res, _ := ix.QueryRel(q.XLo, q.XHi, q.YLo, q.YHi, 1e-9) // forces exact fallback
		e := math.Abs(got.Value - res.Value)
		if e <= got.Bound {
			within++
		}
		if e > worst {
			worst = e
		}
	}
	fmt.Printf("\nguarantee check over %d uniform rectangles (certified bound %g):\n", len(qs), 4*st.Delta)
	fmt.Printf("  within bound: %d/%d, worst error: %.0f\n", within, len(qs), worst)

	// Latency comparison: approximate vs exact.
	startA := time.Now()
	for r := 0; r < 100; r++ {
		for _, q := range qs {
			ix.Query(q.XLo, q.XHi, q.YLo, q.YHi) //nolint:errcheck
		}
	}
	approxPer := time.Since(startA) / time.Duration(100*len(qs))
	startE := time.Now()
	for _, q := range qs {
		ix.QueryRel(q.XLo, q.XHi, q.YLo, q.YHi, 1e-9) //nolint:errcheck
	}
	exactPer := time.Since(startE) / time.Duration(len(qs))
	fmt.Printf("  latency: approx %v/query vs exact aR-tree %v/query (%.0fx speedup)\n",
		approxPer, exactPer, float64(exactPer)/float64(approxPer))
}
