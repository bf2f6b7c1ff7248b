// Command perfbench is the repository's benchmark: it hosts the PolyFit
// serving stack in-process through its exported constructors (a durable
// server behind a loopback http.Server, and for ingest a follower and a
// router), drives it over at most two connections, checks every answer
// against an exact referee, and prints the metrics BENCHMARK.json names.
//
//	perfbench --workload point|batch_scan|ingest --seed N --seconds S --trace 0|1
//
// Run it from the repository root (bash perfbench/run.sh builds it first).
// The last line of standard output is the result object; the line before
// it carries the run's configuration, environment stamp, failure classes
// and supporting figures. See README.md in this directory for the
// workloads and for which end-to-end metric each per-layer metric should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro/internal/server"
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's shared state.
type bench struct {
	seed    int64
	seconds float64
	tr      *tracer // nil on timed runs
	workdir string  // run files, inside the checkout
	tally   *tally
	metrics map[string]metric
	detail  map[string]any

	heapBase uint64        // live heap at the last set-up's markHeap
	markDur  time.Duration // time markHeap took in the current set-up
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }
func (b *bench) note(k string, v any)                    { b.detail[k] = v }
func (b *bench) runFor() time.Duration                   { return time.Duration(b.seconds * float64(time.Second)) }

// spec is the part of BENCHMARK.json the program checks its output against.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "point, batch_scan or ingest")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	flag.Parse()

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 2
	}
	b := &bench{
		seed: *seed, seconds: *seconds, tally: newTally(),
		metrics: make(map[string]metric), detail: make(map[string]any),
		workdir: filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid())),
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.workdir)
	b.note("env", envStamp(b.workdir))

	switch *workload {
	case "point":
		err = runPoint(b)
	case "batch_scan":
		err = runBatchScan(b)
	case "ingest":
		err = runIngest(b)
	default:
		err = fmt.Errorf("unknown workload %q (want point, batch_scan or ingest)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	want := sp.EndToEnd
	if b.tr != nil {
		want = sp.PerLayer
	}
	out := make(map[string]metric, len(want))
	var notExercised []string
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok {
			v = metric{0, m.Unit}
			notExercised = append(notExercised, m.Name)
		}
		if v.Unit != m.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has unit %q, BENCHMARK.json says %q\n", m.Name, v.Unit, m.Unit)
			return 1
		}
		out[m.Name] = v
	}
	if b.tr == nil && len(notExercised) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: end-to-end metrics not measured:", notExercised)
		return 1
	}
	b.note("zero_not_exercised", notExercised)
	b.note("failures", b.tally.classes)
	correct := b.tally.classes["bound_violation"] == 0 && b.tally.classes["lost_insert"] == 0 &&
		b.tally.classes["replica_mismatch"] == 0
	detail, err := json.Marshal(map[string]any{"perfbench": b.detail})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode details:", err)
		return 1
	}
	res, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": b.tally.attempted, "failed": b.tally.failed(), "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		return 1
	}
	fmt.Println(string(detail))
	fmt.Println(string(res))
	return 0
}

// envStamp identifies the host, so figures from different hosts are never
// compared silently.
func envStamp(dir string) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"data_dir_fs": fsType(dir), "commit": commit,
	}
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// setupRuns is how many times a timed run sets its stack up; setup_s is the
// median, and the last stack is the one measured.
const setupRuns = 3

// repeatSetup builds the stack setupRuns times (once on traced runs, which
// do not report setup_s), tearing down all but the last, and records
// setup_s and live_heap_mb. Each build calls b.markHeap once its referee
// data is built and before it creates a server, so live_heap_mb is the
// live heap the serving stack adds, after a forced GC.
func repeatSetup[T any](b *bench, build func() (T, error), teardown func(T)) (T, error) {
	n := setupRuns
	if b.tr != nil {
		n = 1
	}
	var durs []float64
	for i := 0; ; i++ {
		b.markDur = 0
		t0 := time.Now()
		s, err := build()
		if err != nil {
			var zero T
			return zero, err
		}
		durs = append(durs, (time.Since(t0) - b.markDur).Seconds())
		if i < n-1 {
			teardown(s) // and drop it, so the next markHeap does not count it
			continue
		}
		sort.Float64s(durs)
		b.set("setup_s", durs[len(durs)/2], "s")
		b.note("setup_s_all", durs)
		b.set("live_heap_mb", float64(int64(liveHeap())-int64(b.heapBase))/1e6, "MB")
		return s, nil
	}
}

// markHeap records the live heap before a set-up creates its servers. The
// forced GC it takes is left out of setup_s.
func (b *bench) markHeap() {
	t0 := time.Now()
	b.heapBase = liveHeap()
	b.markDur += time.Since(t0)
}

// liveHeap returns the bytes of live heap after a forced GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// owned gives a create request its own copy of the keys and measures, as
// a server decoding the request from JSON would have: what the server
// keeps then counts in live_heap_mb, and the referee's slices stay apart.
func owned(r server.CreateRequest) server.CreateRequest {
	r.Keys = slices.Clone(r.Keys)
	r.Measures = slices.Clone(r.Measures)
	return r
}
