// polyfit-bench runs the repository's core performance probes — index
// construction (serial and parallel), segment location, point queries, and
// raw minimax fitting — through testing.Benchmark and writes the results as
// a JSON snapshot. The committed snapshots (BENCH_PR2.json, ...) seed the
// repo's performance trajectory: each perf-focused PR records before/after
// numbers that later sessions can diff against.
//
// Usage:
//
//	go run ./cmd/polyfit-bench [-out BENCH.json] [-quick] [-baseline FILE]
//	                           [-load] [-load-only] [-load-dur 2s]
//
// -quick shrinks the datasets for a fast smoke run (CI uses the go test
// bench smoke instead; this flag is for local iteration). -baseline embeds
// a previous snapshot's results under "baseline" so one file carries the
// before/after pair.
//
// -load adds a closed-loop load-generator section: an in-process
// internal/server instance (real HTTP via httptest, admission limits
// deliberately capped at GOMAXPROCS executing + 2×GOMAXPROCS queued) is
// driven by N closed-loop workers — each issues a query, waits for the
// answer, immediately issues the next — for a fixed wall-clock window per
// point. Each point records delivered throughput, p50/p99 latency of
// successful queries, and the shed rate (fraction answered 429 by
// admission control), so the overload-control behavior of the serving
// layer is pinned next to the microbenchmarks. -load-only skips the
// microbenchmark probes and runs just the load sweep.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	polyfit "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/minimax"
	"repro/internal/persist"
	"repro/internal/poly"
	"repro/internal/server"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"` // iterations the measurement averaged over
}

// LoadPoint is one closed-loop load-generator measurement: `workers`
// clients in a request-response loop against the serving layer for
// `duration`, with the admission limits capped so overload is reachable.
type LoadPoint struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	DurationMS float64 `json:"duration_ms"`
	Requests   int64   `json:"requests"`
	OK         int64   `json:"ok"`
	Shed       int64   `json:"shed"` // 429s from admission control
	Errors     int64   `json:"errors"`
	Throughput float64 `json:"throughput_qps"` // successful queries per second
	P50us      float64 `json:"p50_us"`         // latency of successful queries
	P99us      float64 `json:"p99_us"`
	ShedRate   float64 `json:"shed_rate"` // shed / requests

	// Cluster sweep extras (zero unless the point ran through the
	// replication router): replica count behind the router, hedge counters
	// over the window, and follower staleness quantiles sampled while the
	// point ran (only the churn row samples them).
	Replicas       int     `json:"replicas,omitempty"`
	HedgedRequests int64   `json:"hedged_requests,omitempty"`
	HedgeWins      int64   `json:"hedge_wins,omitempty"`
	StalenessP50MS float64 `json:"staleness_p50_ms,omitempty"`
	StalenessMaxMS float64 `json:"staleness_max_ms,omitempty"`
}

// Snapshot is the file format.
type Snapshot struct {
	Schema     string      `json:"schema"`
	Generated  string      `json:"generated"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu"`
	GoMaxProcs int         `json:"go_max_procs"`
	Notes      string      `json:"notes,omitempty"`
	Results    []Result    `json:"results"`
	Load       []LoadPoint `json:"load,omitempty"`
	Baseline   any         `json:"baseline,omitempty"`
}

func measure(name string, f func(b *testing.B)) Result {
	r := testing.Benchmark(f)
	res := Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
	}
	fmt.Printf("%-40s %14.1f ns/op %8d B/op %6d allocs/op (n=%d)\n",
		res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.N)
	return res
}

func main() {
	out := flag.String("out", "BENCH.json", "output JSON path")
	quick := flag.Bool("quick", false, "shrink datasets for a fast smoke run")
	baseline := flag.String("baseline", "", "previous snapshot to embed under \"baseline\"")
	notes := flag.String("notes", "", "free-form notes recorded in the snapshot")
	load := flag.Bool("load", false, "also run the closed-loop serving load sweep")
	loadOnly := flag.Bool("load-only", false, "run only the load sweep, skipping the microbenchmark probes")
	loadDur := flag.Duration("load-dur", 2*time.Second, "wall-clock window per load point")
	flag.Parse()

	var results []Result
	if !*loadOnly {
		results = microBenchmarks(*quick)
	}
	var loadPoints []LoadPoint
	if *load || *loadOnly {
		dur := *loadDur
		if *quick && dur > 300*time.Millisecond {
			dur = 300 * time.Millisecond
		}
		loadPoints = runLoad(*quick, dur)
	}

	snap := Snapshot{
		Schema:     "polyfit-bench/v1",
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Notes:      *notes,
		Results:    results,
		Load:       loadPoints,
	}
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			log.Fatalf("read baseline: %v", err)
		}
		var b any
		if err := json.Unmarshal(raw, &b); err != nil {
			log.Fatalf("parse baseline: %v", err)
		}
		snap.Baseline = b
	}
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d results, %d load points)\n", *out, len(results), len(loadPoints))
}

// microBenchmarks runs the testing.Benchmark probe suite and returns the
// measurements.
func microBenchmarks(quick bool) []Result {
	nBuild, nFine := 20_000, 200_000
	if quick {
		nBuild, nFine = 2_000, 10_000
	}
	buildKeys := data.GenTweet(nBuild, 7)
	fineKeys := data.GenTweet(nFine, 7)
	hkiKeys, hkiVals := data.GenHKI(nBuild, 2)
	queries := data.RangeQueriesFromKeys(fineKeys, 1024, 4)

	var results []Result

	// Construction: the Fig. 14c configuration (coarse) and the fine-index
	// configuration where segmentation cost dominates, serial vs parallel.
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		results = append(results, measure(fmt.Sprintf("build/count_n%dk_d50/workers%d", nBuild/1000, w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildCount(buildKeys, core.Options{Degree: 2, Delta: 50, NoFallback: true, Parallelism: w}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		results = append(results, measure(fmt.Sprintf("build/count_n%dk_d0.5/workers%d", nFine/1000, w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildCount(fineKeys, core.Options{Degree: 2, Delta: 0.5, NoFallback: true, Parallelism: w}); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	results = append(results, measure("build/max_hki_d100/workers1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildMax(hkiKeys, hkiVals, core.Options{Degree: 2, Delta: 100, NoFallback: true}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Locate: learned root vs binary search on a fine index.
	fine, err := core.BuildCount(fineKeys, core.Options{Degree: 2, Delta: 0.5, NoFallback: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# fine index: %d segments, root %d KiB of %d KiB total\n",
		fine.NumSegments(), fine.RootSizeBytes()/1024, fine.SizeBytes()/1024)
	probes := make([]float64, 1024)
	for i, q := range queries {
		probes[i&1023] = q.U
	}
	results = append(results, measure("locate/root", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fine.Locate(probes[i&1023])
		}
	}))
	results = append(results, measure("locate/binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fine.LocateBinary(probes[i&1023])
		}
	}))

	// Point queries on the fine index (the Table V shape: locate-dominated).
	results = append(results, measure("query/point_count_fine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i&1023]
			if _, err := fine.RangeSum(q.L, q.U); err != nil {
				b.Fatal(err)
			}
		}
	}))
	maxIx, err := core.BuildMax(hkiKeys, hkiVals, core.Options{Degree: 2, Delta: 100, NoFallback: true})
	if err != nil {
		log.Fatal(err)
	}
	qHKI := data.RangeQueriesFromKeys(hkiKeys, 1024, 5)
	results = append(results, measure("query/point_max", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := qHKI[i&1023]
			if _, _, err := maxIx.RangeExtremum(q.L, q.U); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Sharding: scatter-gather vs unsharded on the fine index — build
	// (K shards fit concurrently), a shard-spanning range, a shard-interior
	// range (single-shard fast path), and the shard-routed batch path.
	const benchShards = 4
	results = append(results, measure(fmt.Sprintf("sharded/build_count_n%dk_d0.5_k%d", nFine/1000, benchShards), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildSharded(core.Count, fineKeys, nil, benchShards, core.Options{Degree: 2, Delta: 0.5, NoFallback: true}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	shardedFine, err := core.BuildSharded(core.Count, fineKeys, nil, benchShards, core.Options{Degree: 2, Delta: 0.5, NoFallback: true})
	if err != nil {
		log.Fatal(err)
	}
	spanLo, spanHi := fineKeys[10], fineKeys[len(fineKeys)-10]
	results = append(results, measure("sharded/query_span_all_shards", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := shardedFine.RangeSum(spanLo, spanHi); err != nil {
				b.Fatal(err)
			}
		}
	}))
	inLo := fineKeys[len(fineKeys)/8]
	inHi := fineKeys[len(fineKeys)/8+50]
	results = append(results, measure("sharded/query_shard_interior", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := shardedFine.RangeSum(inLo, inHi); err != nil {
				b.Fatal(err)
			}
		}
	}))
	batchRanges := make([]core.Range, len(queries))
	for i, q := range queries {
		batchRanges[i] = core.Range{Lo: q.L, Hi: q.U}
	}
	results = append(results, measure(fmt.Sprintf("sharded/query_batch_%d", len(batchRanges)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := shardedFine.QueryBatch(batchRanges); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Coefficient encodings: build cost (serial and parallel), footprint,
	// and the query paths per forced encoding on the fine COUNT index — the
	// size/speed tradeoff of the succinct segment store. The unforced rows
	// above already pay the auto-selection cost (certify-and-compare), so
	// these rows isolate each encoding's own build and query price.
	for _, enc := range []core.Encoding{core.EncRaw, core.EncF32, core.EncPacked} {
		enc := enc
		encOpt := core.Options{Degree: 2, Delta: 0.5, NoFallback: true, Encoding: enc}
		for _, w := range []int{1, 4} {
			w := w
			results = append(results, measure(fmt.Sprintf("encoding/build_count_n%dk_d0.5_%s/workers%d", nFine/1000, enc, w), func(b *testing.B) {
				b.ReportAllocs()
				o := encOpt
				o.Parallelism = w
				for i := 0; i < b.N; i++ {
					if _, err := core.BuildCount(fineKeys, o); err != nil {
						b.Fatal(err)
					}
				}
			}))
		}
		encIx, err := core.BuildCount(fineKeys, encOpt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# encoding %-8s: certified %s, %d segments, %d B total (coeff %d B, root %d B)\n",
			enc, encIx.Encoding(), encIx.NumSegments(), encIx.SizeBytes(),
			encIx.CoeffSizeBytes(), encIx.RootSizeBytes())
		results = append(results, measure(fmt.Sprintf("encoding/query_point_%s", enc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := queries[i&1023]
				if _, err := encIx.RangeSum(q.L, q.U); err != nil {
					b.Fatal(err)
				}
			}
		}))
		results = append(results, measure(fmt.Sprintf("encoding/query_batch_%d_%s", len(batchRanges), enc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encIx.QueryBatch(batchRanges); err != nil {
					b.Fatal(err)
				}
			}
		}))
		encSharded, err := core.BuildSharded(core.Count, fineKeys, nil, benchShards, encOpt)
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, measure(fmt.Sprintf("encoding/sharded_query_batch_%d_%s", len(batchRanges), enc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encSharded.QueryBatch(batchRanges); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Public builder API: the polyfit.New construction path and the
	// Index-interface point query, pinning the (intended: negligible)
	// overhead of the uniform Result contract over the raw core calls.
	pub, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: fineKeys},
		polyfit.WithDelta(0.5), polyfit.WithFallback(false))
	if err != nil {
		log.Fatal(err)
	}
	results = append(results, measure("public/build_count_via_new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: buildKeys},
				polyfit.WithDelta(50), polyfit.WithFallback(false)); err != nil {
				b.Fatal(err)
			}
		}
	}))
	results = append(results, measure("public/query_point_count_fine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i&1023]
			if _, err := pub.Query(polyfit.Range{Lo: q.L, Hi: q.U}); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// Raw fitting: throwaway-Fitter wrapper vs reused Fitter on a
	// segmentation-sized window.
	winKeys := hkiKeys[:91]
	winVals := hkiVals[:91]
	results = append(results, measure("fit/fitpoly_deg2_n91", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := minimax.FitPoly(winKeys, winVals, 2); err != nil {
				b.Fatal(err)
			}
		}
	}))
	results = append(results, measure("fit/fitter_deg2_n91", func(b *testing.B) {
		b.ReportAllocs()
		f := minimax.NewFitter()
		var spare poly.Poly
		for i := 0; i < b.N; i++ {
			fit, err := f.Fit(winKeys, winVals, 2, -1, spare)
			if err != nil {
				b.Fatal(err)
			}
			spare = fit.P.P
		}
	}))

	// Durability: snapshot write (dynamic marshal + CRC envelope + fsync +
	// rename) and full recovery (snapshot read + restore + WAL replay) for
	// a dynamic index with a populated delta buffer — the costs behind the
	// serving layer's background snapshotter and boot-time recovery.
	persistDir, err := os.MkdirTemp("", "polyfit-bench-persist-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(persistDir)
	dyn, err := core.NewDynamic(core.Count, fineKeys, make([]float64, len(fineKeys)),
		core.Options{Degree: 2, Delta: 50})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if err := dyn.Insert(1e9+float64(i), 1); err != nil {
			log.Fatal(err)
		}
	}
	store, err := persist.Open(persistDir)
	if err != nil {
		log.Fatal(err)
	}
	results = append(results, measure(fmt.Sprintf("persist/snapshot_write_n%dk", nFine/1000), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blob, err := dyn.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			if err := store.WriteSnapshot("bench", blob); err != nil {
				b.Fatal(err)
			}
		}
	}))
	walRecs := make([]persist.Record, 512)
	for i := range walRecs {
		walRecs[i] = persist.Record{Key: 2e9 + float64(i), Measure: 1}
	}
	wal, _, _, err := persist.OpenWAL(filepath.Join(persistDir, "bench-wal.pf"))
	if err != nil {
		log.Fatal(err)
	}
	if err := wal.Append(walRecs); err != nil {
		log.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		log.Fatal(err)
	}
	results = append(results, measure(fmt.Sprintf("persist/recover_n%dk_wal512", nFine/1000), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			blob, err := store.ReadSnapshot("bench")
			if err != nil {
				b.Fatal(err)
			}
			restored, err := core.RestoreDynamic(blob)
			if err != nil {
				b.Fatal(err)
			}
			w, recs, _, err := persist.OpenWAL(filepath.Join(persistDir, "bench-wal.pf"))
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range recs {
				if err := restored.Insert(r.Key, r.Measure); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	return results
}

// runLoad drives an in-process serving instance with closed-loop workers
// over real HTTP and measures delivered throughput, successful-query
// latency quantiles, and the shed rate per worker count. The admission
// limits are pinned low (GOMAXPROCS executing, 2×GOMAXPROCS queued) so
// the sweep actually crosses from underload into overload: the low worker
// counts characterize latency, the high ones characterize shedding.
func runLoad(quick bool, dur time.Duration) []LoadPoint {
	n := 200_000
	if quick {
		n = 20_000
	}
	keys := data.GenTweet(n, 7)
	qs := data.RangeQueriesFromKeys(keys, 1024, 9)

	procs := runtime.GOMAXPROCS(0)
	srv, err := server.NewDurable(server.Config{
		MaxConcurrentQueries: procs,
		MaxQueuedQueries:     2 * procs,
		Logf:                 func(string, ...any) {},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	// Sharded on purpose: scatter-gather parks the admission-slot holder on
	// the gather channel, so under a closed-loop flood the slot is genuinely
	// contended and the queue/shed path is exercised even on small machines.
	if _, err := srv.Create(server.CreateRequest{
		Name: "bench", Agg: "count", Keys: keys, EpsAbs: 100, Shards: 4,
	}); err != nil {
		log.Fatal(err)
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	if tr, ok := client.Transport.(*http.Transport); ok {
		tr.MaxIdleConns = 512
		tr.MaxIdleConnsPerHost = 512
	}
	url := ts.URL + "/v1/indexes/bench/query"

	// Pre-marshal distinct query bodies: 1024 different ranges, so the
	// sweep measures a realistic mix rather than one query repeated.
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		bodies[i] = fmt.Appendf(nil, `{"lo":%g,"hi":%g}`, q.L, q.U)
	}

	var points []LoadPoint
	for _, workers := range []int{1, 4, 16, 64, 256} {
		p := runLoadPoint(client, "load/closed_loop", url, bodies, workers, dur)
		points = append(points, p)
		fmt.Printf("%-32s %10.0f q/s  p50 %8.1fµs  p99 %8.1fµs  shed %5.1f%%  (%d req, %d err)\n",
			p.Name, p.Throughput, p.P50us, p.P99us, 100*p.ShedRate, p.Requests, p.Errors)
	}

	// Overload sweep: heavy batch requests (64Ki ranges ≈ 10ms of execution
	// each) hold the admission slot long enough that concurrent arrivals
	// genuinely contend for it — even on a single-CPU machine, where
	// sub-millisecond point queries run to completion between scheduler
	// preemptions and the queue never fills. This is the sweep that pins a
	// non-trivial shed rate: the slots and queue saturate, and the server's
	// answer to the excess is a fast 429, not an unbounded pile-up.
	nRanges := 1 << 16
	if quick {
		nRanges = 1 << 14
	}
	batchURL := ts.URL + "/v1/indexes/bench/batch"
	batchBodies := make([][]byte, 4)
	for v := range batchBodies {
		var buf bytes.Buffer
		buf.WriteString(`{"ranges":[`)
		for i := 0; i < nRanges; i++ {
			q := qs[(i*7+v*131)%len(qs)]
			if i > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, `{"lo":%g,"hi":%g}`, q.L, q.U)
		}
		buf.WriteString(`]}`)
		batchBodies[v] = buf.Bytes()
	}
	for _, workers := range []int{16, 64} {
		p := runLoadPoint(client, fmt.Sprintf("load/overload_batch%d", nRanges), batchURL, batchBodies, workers, dur)
		points = append(points, p)
		fmt.Printf("%-32s %10.0f q/s  p50 %8.1fµs  p99 %8.1fµs  shed %5.1f%%  (%d req, %d err)\n",
			p.Name, p.Throughput, p.P50us, p.P99us, 100*p.ShedRate, p.Requests, p.Errors)
	}

	points = append(points, runClusterLoad(keys, qs, dur)...)
	return points
}

// runClusterLoad is the replicated-tier sweep: an in-process leader, two
// WAL-streaming followers, and the hedged scatter-gather router (see
// internal/cluster), all over real HTTP. The rows pin what replication
// buys and costs: read latency through the router with 1 replica vs 3,
// hedged vs unhedged tail latency over the same 3 replicas, and how stale
// the followers actually run while a single-writer insert churn streams
// at the leader.
func runClusterLoad(keys []float64, qs []data.RangeQuery, dur time.Duration) []LoadPoint {
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		bodies[i] = fmt.Appendf(nil, `{"lo":%g,"hi":%g}`, q.L, q.U)
	}

	// Durable leader: followers join from its snapshot and stream its WALs.
	dir, err := os.MkdirTemp("", "polyfit-bench-cluster-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	leader, err := server.NewDurable(server.Config{
		DataDir:          dir,
		SnapshotInterval: -1,
		Logf:             func(string, ...any) {},
	})
	if err != nil {
		log.Fatal(err)
	}
	lts := httptest.NewServer(leader)
	defer func() { lts.Close(); leader.Close() }() //nolint:errcheck
	if _, err := leader.Create(server.CreateRequest{
		Name: "bench", Agg: "count", Keys: keys, EpsAbs: 100, Dynamic: true,
	}); err != nil {
		log.Fatal(err)
	}

	var fts []*httptest.Server
	for i := 0; i < 2; i++ {
		f, err := server.NewDurable(server.Config{
			Join:             lts.URL,
			ReplPollInterval: 2 * time.Millisecond,
			ReplWait:         50 * time.Millisecond,
			SnapshotInterval: -1,
			Logf:             func(string, ...any) {},
		})
		if err != nil {
			log.Fatal(err)
		}
		ts := httptest.NewServer(f)
		defer func() { ts.Close(); f.Close() }() //nolint:errcheck
		fts = append(fts, ts)
	}
	// Let both followers finish their initial snapshot join before any row
	// measures: a router read served mid-join would measure the join, not
	// the steady state.
	for _, ts := range fts {
		deadline := time.Now().Add(15 * time.Second)
		for {
			st := fetchServerStats(ts.Client(), ts.URL)
			if len(st.AckWatermark) > 0 {
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("follower %s never joined", ts.URL)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	routed := func(name string, replicas []string, hedge time.Duration, workers int, churn bool) LoadPoint {
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Replicas:      replicas,
			HedgeDelay:    hedge,
			ProbeInterval: 20 * time.Millisecond,
			Logf:          func(string, ...any) {},
		})
		if err != nil {
			log.Fatal(err)
		}
		rts := httptest.NewServer(rt)
		defer func() { rts.Close(); rt.Close() }()
		client := rts.Client()
		if tr, ok := client.Transport.(*http.Transport); ok {
			tr.MaxIdleConns = 512
			tr.MaxIdleConnsPerHost = 512
		}

		// Churn rows run a single-writer insert stream at the leader (the
		// replication determinism contract wants exactly one writer) and
		// sample the followers' reported staleness while the queries run.
		stopChurn := make(chan struct{})
		var churnWG sync.WaitGroup
		staleCh := make(chan []float64, 1)
		if churn {
			churnWG.Add(1)
			go func() {
				defer churnWG.Done()
				lc := lts.Client()
				for i := 0; ; i++ {
					select {
					case <-stopChurn:
						return
					default:
					}
					body := fmt.Appendf(nil, `{"records":[{"key":%g,"measure":1}]}`, 9e9+float64(i))
					resp, err := lc.Post(lts.URL+"/v1/indexes/bench/insert", "application/json",
						bytes.NewReader(body))
					if err != nil {
						continue
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()              //nolint:errcheck
				}
			}()
			churnWG.Add(1)
			go func() {
				defer churnWG.Done()
				var samples []float64
				tick := time.NewTicker(10 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stopChurn:
						staleCh <- samples
						return
					case <-tick.C:
						for _, ts := range fts {
							st := fetchServerStats(ts.Client(), ts.URL)
							samples = append(samples, float64(st.StalenessMS))
						}
					}
				}
			}()
		}

		p := runLoadPoint(client, name, rts.URL+"/v1/indexes/bench/query", bodies, workers, dur)
		if churn {
			close(stopChurn)
			churnWG.Wait()
			samples := <-staleCh
			sort.Float64s(samples)
			p.StalenessP50MS = percentile(samples, 50)
			p.StalenessMaxMS = percentile(samples, 100)
		}
		p.Replicas = len(replicas)

		var rst struct {
			HedgedRequests int64 `json:"hedged_requests"`
			HedgeWins      int64 `json:"hedge_wins"`
		}
		resp, err := client.Get(rts.URL + "/v1/stats")
		if err != nil {
			log.Fatalf("router stats: %v", err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&rst); err != nil {
			log.Fatalf("decode router stats: %v", err)
		}
		resp.Body.Close() //nolint:errcheck
		p.HedgedRequests = rst.HedgedRequests
		p.HedgeWins = rst.HedgeWins
		fmt.Printf("%-32s %10.0f q/s  p50 %8.1fµs  p99 %8.1fµs  hedged %d (won %d)  staleness p50 %.0fms max %.0fms\n",
			p.Name, p.Throughput, p.P50us, p.P99us, p.HedgedRequests, p.HedgeWins,
			p.StalenessP50MS, p.StalenessMaxMS)
		return p
	}

	all := []string{lts.URL, fts[0].URL, fts[1].URL}
	return []LoadPoint{
		routed("cluster/router_1replica", []string{lts.URL}, 2*time.Millisecond, 16, false),
		routed("cluster/router_3replicas_hedged", all, 2*time.Millisecond, 16, false),
		routed("cluster/router_3replicas_unhedged", all, -1, 16, false),
		routed("cluster/staleness_under_churn", all, 2*time.Millisecond, 16, true),
	}
}

// fetchServerStats reads a server's /v1/stats.
func fetchServerStats(client *http.Client, base string) server.ServerStats {
	var st server.ServerStats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		log.Fatalf("fetch /v1/stats: %v", err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatalf("decode /v1/stats: %v", err)
	}
	return st
}

func runLoadPoint(client *http.Client, name, url string, bodies [][]byte, workers int, dur time.Duration) LoadPoint {
	var ok, shed, errs atomic.Int64
	latCh := make(chan []float64, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lats := make([]float64, 0, 4096)
			i := w * 131 // offset each worker's walk so they don't march in lockstep
			for {
				select {
				case <-stop:
					latCh <- lats
					return
				default:
				}
				body := bodies[i%len(bodies)]
				i++
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				el := float64(time.Since(t0).Nanoseconds()) / 1e3
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()              //nolint:errcheck
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					lats = append(lats, el)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					errs.Add(1)
				}
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	for w := 0; w < workers; w++ {
		all = append(all, <-latCh...)
	}
	sort.Float64s(all)
	total := ok.Load() + shed.Load() + errs.Load()
	p := LoadPoint{
		Name:       fmt.Sprintf("%s/workers%d", name, workers),
		Workers:    workers,
		DurationMS: float64(elapsed.Nanoseconds()) / 1e6,
		Requests:   total,
		OK:         ok.Load(),
		Shed:       shed.Load(),
		Errors:     errs.Load(),
		Throughput: float64(ok.Load()) / elapsed.Seconds(),
		P50us:      percentile(all, 50),
		P99us:      percentile(all, 99),
	}
	if total > 0 {
		p.ShedRate = float64(shed.Load()) / float64(total)
	}
	return p
}

// percentile reads the p-th percentile (nearest-rank) from an ascending
// slice; 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
