package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/persist"
)

// overloadServer builds an in-memory server with a tiny admission budget
// and a small COUNT index, for tests that saturate the query path.
func overloadServer(t *testing.T, maxConc, maxQueue int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewDurable(Config{MaxConcurrentQueries: maxConc, MaxQueuedQueries: maxQueue})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]float64, 512)
	for i := range keys {
		keys[i] = float64(i)
	}
	if _, err := s.Create(CreateRequest{Name: "ix", Agg: "count", EpsAbs: 64, Keys: keys}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// holdQueries installs a test hook that blocks every admitted query until
// release is closed, handshaking each arrival on entered.
func holdQueries(t *testing.T) (entered chan struct{}, release chan struct{}) {
	t.Helper()
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	testHookQueryDelay = func() {
		entered <- struct{}{}
		<-release
	}
	t.Cleanup(func() { testHookQueryDelay = nil })
	return entered, release
}

func TestOverloadShedsFastWith429(t *testing.T) {
	s, ts := overloadServer(t, 1, 1)
	entered, release := holdQueries(t)

	// Three queries: one executing (held in the hook), one queued, and the
	// third must be shed.
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: float64(i), Hi: 400}, nil)
			codes[i] = resp.StatusCode
		}(i)
	}
	<-entered // the executing query holds the only slot
	waitFor(t, "one queued query", func() bool { return s.adm.queued.Load() == 1 })

	start := time.Now()
	resp := post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 2, Hi: 400}, nil)
	shedLatency := time.Since(start)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query: got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}
	// The shed decision is non-blocking; 10ms is the ISSUE budget and is
	// generous even for a loopback round trip.
	if shedLatency > 10*time.Millisecond {
		t.Errorf("shed took %v, want < 10ms", shedLatency)
	}
	if got := s.adm.shed.Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("held query %d: got %d, want 200 after release", i, code)
		}
	}
}

// TestIdenticalQueriesCoalesce holds identical concurrent queries in the
// hook, each in its own admission slot: released together, they all
// answer 200 with identical bytes.
func TestIdenticalQueriesCoalesce(t *testing.T) {
	_, ts := overloadServer(t, 8, 8)
	entered, release := holdQueries(t)

	const n = 8
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/indexes/ix/query", "application/json",
				strings.NewReader(`{"lo": 10, "hi": 300}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
			codes[i] = resp.StatusCode
		}(i)
	}
	for i := 0; i < n; i++ {
		<-entered // every query holds its own slot, parked before executing
	}
	close(release)
	wg.Wait()

	for i := range bodies {
		if codes[i] != http.StatusOK {
			t.Fatalf("query %d: status %d, want 200", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("identical queries answered differently: %q vs %q", bodies[i], bodies[0])
		}
	}
}

func TestQueryDeadlineAnswers504(t *testing.T) {
	s, ts := overloadServer(t, 4, 4)
	testHookQueryDelay = func() { time.Sleep(80 * time.Millisecond) }
	t.Cleanup(func() { testHookQueryDelay = nil })

	var e errorResponse
	resp := post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 100, TimeoutMS: 20}, &e)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired query: got %d (%s), want 504", resp.StatusCode, e.Error)
	}
	if got := s.timedOut.Load(); got != 1 {
		t.Errorf("timed_out counter = %d, want 1", got)
	}
	// Batch requests honor the same deadline.
	resp = post(t, ts, "/v1/indexes/ix/batch", BatchRequest{
		Ranges: []RangeJSON{{Lo: 0, Hi: 100}}, TimeoutMS: 20,
	}, &e)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired batch: got %d (%s), want 504", resp.StatusCode, e.Error)
	}
}

// TestDeadlineWhileQueuedAnswers504 pins the queued-arm of the deadline
// contract: a query whose deadline expires while waiting for a slot
// answers 504 and counts timed_out, not canceled.
func TestDeadlineWhileQueuedAnswers504(t *testing.T) {
	s, ts := overloadServer(t, 1, 4)
	entered, release := holdQueries(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 400}, nil)
	}()
	<-entered // slot held

	var e errorResponse
	resp := post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 1, Hi: 400, TimeoutMS: 25}, &e)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued query past deadline: got %d (%s), want 504", resp.StatusCode, e.Error)
	}
	if got, canc := s.timedOut.Load(), s.canceled.Load(); got != 1 || canc != 0 {
		t.Errorf("counters = {timed_out:%d canceled:%d}, want {1, 0}", got, canc)
	}
	close(release)
	wg.Wait()
}

// TestClientDisconnectCounts499 is the regression test for the
// canceled-vs-deadline bug: a client hanging up used to be folded into
// timed_out as a 504. It must instead count canceled_queries (499-style)
// — tested both while queued and mid-execution.
func TestClientDisconnectCounts499(t *testing.T) {
	t.Run("while queued", func(t *testing.T) {
		s, ts := overloadServer(t, 1, 4)
		entered, release := holdQueries(t)
		defer close(release)

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 400}, nil)
		}()
		<-entered // slot held: the next query will queue

		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/indexes/ix/query", bytes.NewReader([]byte(`{"lo": 1, "hi": 400}`)))
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, derr := ts.Client().Do(req)
			errc <- derr
		}()
		waitFor(t, "disconnecting query queued", func() bool { return s.adm.queued.Load() == 1 })
		cancel() // client hangs up while queued
		if derr := <-errc; derr == nil {
			t.Fatal("canceled request unexpectedly completed")
		}
		waitFor(t, "canceled counter", func() bool { return s.canceled.Load() == 1 })
		if got := s.timedOut.Load(); got != 0 {
			t.Errorf("client disconnect inflated timed_out: %d, want 0", got)
		}
	})

	t.Run("mid-execution", func(t *testing.T) {
		s, ts := overloadServer(t, 4, 4)
		// Park the executing query until its own request context dies — the
		// context-aware hook makes "client hangs up mid-execution" exact:
		// the index traversal provably starts after the disconnect landed.
		executing := make(chan struct{})
		testHookQueryDelayCtx = func(ctx context.Context) {
			close(executing)
			<-ctx.Done()
		}
		t.Cleanup(func() { testHookQueryDelayCtx = nil })

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/indexes/ix/query", bytes.NewReader([]byte(`{"lo": 0, "hi": 400}`)))
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, derr := ts.Client().Do(req)
			errc <- derr
		}()
		<-executing // the query holds a slot, about to traverse
		cancel()    // client hangs up; the hook releases once the server sees it
		if derr := <-errc; derr == nil {
			t.Fatal("canceled request unexpectedly completed")
		}
		waitFor(t, "canceled counter", func() bool { return s.canceled.Load() == 1 })
		if got := s.timedOut.Load(); got != 0 {
			t.Errorf("client disconnect inflated timed_out: %d, want 0", got)
		}
	})
}

func TestPanicRecoveredTo500(t *testing.T) {
	s, ts := overloadServer(t, 4, 4)
	testHookQueryDelay = func() { panic("injected handler panic") }
	var e errorResponse
	resp := post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 100}, &e)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: got %d, want 500", resp.StatusCode)
	}
	if e.Error == "" {
		t.Error("500 body is not the structured error response")
	}
	if got := s.panics.Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
	// The server keeps serving after the panic.
	testHookQueryDelay = nil
	var q QueryResponse
	if resp := post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 100}, &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after panic: got %d, want 200", resp.StatusCode)
	}
}

func TestOversizedBodyAnswers413(t *testing.T) {
	_, ts := overloadServer(t, 4, 4)
	// 2 MiB of valid JSON against the query route's 1 MiB cap.
	big := `{"lo": 0, "hi": 100, "pad": "` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/v1/indexes/ix/query", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query body: got %d, want 413", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("413 body is not the structured error response (err=%v, body=%q)", err, e.Error)
	}
}

func TestDrainRejectsNewAndWaitsForInFlight(t *testing.T) {
	s, ts := overloadServer(t, 4, 4)
	entered, release := holdQueries(t)

	var heldCode atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 100}, nil)
		heldCode.Store(int64(resp.StatusCode))
	}()
	<-entered

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	waitFor(t, "server draining", func() bool { return s.draining.Load() })

	resp := post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 1, Hi: 100}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request while draining: got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response is missing Retry-After")
	}

	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	if heldCode.Load() != http.StatusOK {
		t.Errorf("in-flight query during drain: got %d, want 200", heldCode.Load())
	}
}

func TestDrainDeadlineExpires(t *testing.T) {
	s, ts := overloadServer(t, 4, 4)
	entered, release := holdQueries(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 100}, nil)
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with stuck request: err = %v, want DeadlineExceeded", err)
	}
	close(release)
	wg.Wait()
}

// TestDrainLeavesNoQueryRunning fires bursts of queries at the moment
// Drain starts. Once Drain has returned nil, no query may reach execution:
// one that got past the drain check before it was counted in flight would
// run beside Close. Each round releases its burst and Drain together from
// a spin barrier and holds one side back by a different number of spins,
// so the rounds sweep the instant Drain reads the in-flight gauge across
// the queries' entry into ServeHTTP.
func TestDrainLeavesNoQueryRunning(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two CPUs to run queries beside Drain")
	}
	s, _ := overloadServer(t, 64, 64)
	var drained atomic.Bool
	var late atomic.Int64
	testHookQueryDelay = func() {
		if drained.Load() {
			late.Add(1)
		}
	}
	t.Cleanup(func() { testHookQueryDelay = nil })

	// One query per spare CPU, so every goroutine of a round really spins.
	burst := min(runtime.GOMAXPROCS(0)-1, 4)
	var spins atomic.Int64 // a sink, so the delay loops are not optimised away
	spin := func(n int) {
		for i := 0; i < n; i++ {
			spins.Add(1)
		}
	}
	const rounds = 2000
	for round := 0; round < rounds && late.Load() == 0; round++ {
		// Drain is one-way; reopen the server for the next round.
		s.draining.Store(false)
		drained.Store(false)
		offset := round%64 - 32 // < 0 holds the burst back, > 0 holds Drain back
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		var ready atomic.Int64
		var fire atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < burst; g++ {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/indexes/ix/query",
				strings.NewReader(`{"lo": 0, "hi": 100}`))
			wg.Add(1)
			go func() {
				defer wg.Done()
				ready.Add(1)
				for !fire.Load() {
				}
				spin(-offset)
				s.ServeHTTP(rec, req)
			}()
		}
		for ready.Load() < int64(burst) {
			runtime.Gosched()
		}
		fire.Store(true)
		spin(offset)
		err := s.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: Drain: %v", round, err)
		}
		drained.Store(true)
		wg.Wait()
	}
	if n := late.Load(); n > 0 {
		t.Fatalf("%d queries reached execution after Drain returned nil", n)
	}
}

// --- WAL degradation ---------------------------------------------------------

// flakySyncFS delegates to the real filesystem but fails Sync on files
// opened through OpenFile (the WAL append path) while fail is set.
// Snapshot writes go through CreateTemp and stay healthy, which is
// exactly the "sick log, working snapshots" degradation scenario.
type flakySyncFS struct {
	persist.FS
	fail atomic.Bool
}

type flakySyncFile struct {
	persist.File
	fs *flakySyncFS
}

func (f *flakySyncFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakySyncFile{File: file, fs: f}, nil
}

func (f *flakySyncFile) Sync() error {
	if f.fs.fail.Load() {
		return errors.New("flakySyncFS: injected fsync failure")
	}
	return f.File.Sync()
}

func TestInsertDegradesThenSnapshotHeals(t *testing.T) {
	dir := t.TempDir()
	ffs := &flakySyncFS{FS: persist.OSFS()}
	s, err := NewDurable(Config{
		DataDir:          dir,
		SnapshotInterval: -1,
		FS:               ffs,
		Retry:            persist.RetryPolicy{Attempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(CreateRequest{Name: "dyn", Agg: "count", EpsAbs: 64, Dynamic: true, Keys: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	insert := func(key float64) InsertResponse {
		t.Helper()
		var out InsertResponse
		resp := post(t, ts, "/v1/indexes/dyn/insert", InsertRequest{Records: []Record{{Key: key}}}, &out)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %g: status %d, want 200", key, resp.StatusCode)
		}
		if out.Inserted != 1 {
			t.Fatalf("insert %g: inserted %d (%v)", key, out.Inserted, out.Errors)
		}
		return out
	}

	if out := insert(10); !out.Durable || out.Degraded {
		t.Fatalf("healthy insert: durable=%v degraded=%v, want durable", out.Durable, out.Degraded)
	}

	// Break the log: the insert must still be acknowledged (200) but with
	// durable:false, and the index flagged degraded.
	ffs.fail.Store(true)
	if out := insert(11); out.Durable || !out.Degraded {
		t.Fatalf("degraded insert: durable=%v degraded=%v, want non-durable degraded", out.Durable, out.Degraded)
	}
	// While degraded, inserts skip the sick log entirely and keep serving.
	if out := insert(12); out.Durable || !out.Degraded {
		t.Fatalf("second degraded insert: durable=%v degraded=%v", out.Durable, out.Degraded)
	}
	var st ServerStats
	get(t, ts, "/v1/stats", &st)
	if st.DegradedIndexes != 1 || st.NonDurableInserts != 2 || st.PersistErrors == 0 {
		t.Fatalf("degraded stats = {degraded_indexes:%d non_durable:%d persist_errors:%d}, want {1, 2, >0}",
			st.DegradedIndexes, st.NonDurableInserts, st.PersistErrors)
	}
	var ixSt StatsResponse
	get(t, ts, "/v1/indexes/dyn", &ixSt)
	if !ixSt.PersistDegraded || ixSt.NonDurableInserts != 2 {
		t.Fatalf("per-index stats = {degraded:%v non_durable:%d}, want {true, 2}", ixSt.PersistDegraded, ixSt.NonDurableInserts)
	}

	// Disk heals; the next snapshot covers the unlogged records, resets
	// the WAL, and clears the degradation.
	ffs.fail.Store(false)
	if err := s.SnapshotAll(); err != nil {
		t.Fatalf("healing snapshot: %v", err)
	}
	get(t, ts, "/v1/stats", &st)
	if st.DegradedIndexes != 0 {
		t.Fatalf("degraded_indexes = %d after healing snapshot, want 0", st.DegradedIndexes)
	}
	if out := insert(13); !out.Durable || out.Degraded {
		t.Fatalf("post-heal insert: durable=%v degraded=%v, want durable", out.Durable, out.Degraded)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every acknowledged insert — including the two non-durable ones the
	// snapshot covered — survives a restart.
	s2, err := NewDurable(Config{DataDir: dir, SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	var q QueryResponse
	post(t, ts2, "/v1/indexes/dyn/query", QueryRequest{Lo: 0, Hi: 100}, &q)
	if q.Value != 7 { // 3 built + inserts 10,11,12,13
		t.Fatalf("recovered count = %g, want 7", q.Value)
	}
}

// --- satellite coverage: corrupt restore, rebuild races, use after Close ----

func TestRestoreWithCorruptBlob(t *testing.T) {
	_, ts := overloadServer(t, 4, 4)
	// Not base64 at all.
	var e errorResponse
	resp := post(t, ts, "/v1/indexes/ix/restore", RestoreRequest{Blob: "!!not-base64!!"}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid base64: got %d, want 400", resp.StatusCode)
	}
	// Valid base64 of garbage bytes.
	resp = post(t, ts, "/v1/indexes/ix/restore", RestoreRequest{Blob: "Z2FyYmFnZSBieXRlcyBoZXJl"}, &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage blob: got %d, want 400", resp.StatusCode)
	}
	// The original index is untouched by the failed restores.
	var q QueryResponse
	if resp := post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 511}, &q); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after failed restore: got %d, want 200", resp.StatusCode)
	}
	if diff := q.Value - 512; diff > q.Bound || -diff > q.Bound {
		t.Fatalf("count after failed restore = %g, want 512 ± %g", q.Value, q.Bound)
	}
}

func TestQueriesDuringRebuild(t *testing.T) {
	s := New()
	keys := make([]float64, 4096)
	for i := range keys {
		keys[i] = float64(i)
	}
	if _, err := s.Create(CreateRequest{Name: "dyn", Agg: "count", EpsAbs: 64, Dynamic: true, Keys: keys}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var q QueryResponse
				resp := post(t, ts, "/v1/indexes/dyn/query",
					QueryRequest{Lo: float64(w * 7), Hi: float64(2048 + i%512)}, &q)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query during rebuild: status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 4; i++ {
		post(t, ts, "/v1/indexes/dyn/insert", InsertRequest{Records: []Record{{Key: float64(10000 + i)}}}, nil)
		resp := post(t, ts, "/v1/indexes/dyn/rebuild", nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rebuild %d: status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
}

func TestInsertAfterCloseIsRejected(t *testing.T) {
	s, err := NewDurable(Config{DataDir: t.TempDir(), SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(CreateRequest{Name: "dyn", Agg: "count", EpsAbs: 64, Dynamic: true, Keys: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close ends the durability guarantees; the middleware turns further
	// traffic away instead of acknowledging inserts it could then lose.
	resp := post(t, ts, "/v1/indexes/dyn/insert", InsertRequest{Records: []Record{{Key: 9}}}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert after Close: got %d, want 503", resp.StatusCode)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
