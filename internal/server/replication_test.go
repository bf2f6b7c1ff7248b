package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
)

// newFollowerServer starts an in-memory follower replicating from leader.
func newFollowerServer(t *testing.T, leaderURL string) (*Server, *httptest.Server) {
	t.Helper()
	f, err := NewDurable(Config{
		Join:             leaderURL,
		ReplPollInterval: 2 * time.Millisecond,
		ReplWait:         50 * time.Millisecond,
		SnapshotInterval: -1,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f)
	t.Cleanup(func() { ts.Close(); f.Close() })
	return f, ts
}

func leaderStatus(t *testing.T, url string) *cluster.NodeStatus {
	t.Helper()
	resp, err := http.Get(url + cluster.PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st cluster.NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

func serverStats(t *testing.T, url string) *ServerStats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}

// caughtUp reports whether the follower's applied watermark matches the
// leader's end sequences for every index.
func caughtUp(t *testing.T, leaderURL string, f *Server) bool {
	t.Helper()
	st := leaderStatus(t, leaderURL)
	if f.follower == nil {
		t.Fatal("server is not a follower")
	}
	wm := f.follower.watermark()
	for _, ix := range st.Indexes {
		seqs, ok := wm[ix.Name]
		if !ok || len(seqs) != len(ix.Seqs) {
			return false
		}
		for i := range seqs {
			if seqs[i] < ix.Seqs[i] {
				return false
			}
		}
	}
	return true
}

// rawQuery posts a query and returns the raw response bytes — the unit of
// the bitwise-identity assertion.
func rawQuery(t *testing.T, url, name string, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/indexes/"+name+"/query", "application/json",
		bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s on %s: %d %s", body, url, resp.StatusCode, payload)
	}
	return payload
}

func TestFollowerJoinsFromEmptyAndMirrors(t *testing.T) {
	dir := t.TempDir()
	leader := newDurable(t, dir)
	defer leader.Close()
	lts := httptest.NewServer(leader)
	defer lts.Close()

	keys := data.GenTweet(2000, 3)
	mustPost(t, lts, "/v1/indexes", CreateRequest{
		Name: "dyn", Agg: "count", Dynamic: true, Keys: keys, EpsAbs: 100,
	}, nil)
	mustPost(t, lts, "/v1/indexes", CreateRequest{
		Name: "static", Agg: "count", Keys: keys[:500], EpsAbs: 50,
	}, nil)

	fsrv, fts := newFollowerServer(t, lts.URL)
	waitFor(t, "follower catch-up", func() bool { return caughtUp(t, lts.URL, fsrv) })

	// Both indexes answer identically on leader and follower.
	for _, q := range []string{`{"lo":0,"hi":1e12}`, `{"lo":1000,"hi":50000}`} {
		for _, name := range []string{"dyn", "static"} {
			if l, f := rawQuery(t, lts.URL, name, q), rawQuery(t, fts.URL, name, q); !bytes.Equal(l, f) {
				t.Fatalf("%s %s: leader %s, follower %s", name, q, l, f)
			}
		}
	}

	// New inserts stream across.
	var recs []Record
	for i := 0; i < 200; i++ {
		recs = append(recs, Record{Key: 1e9 + float64(i), Measure: 1})
	}
	mustPost(t, lts, "/v1/indexes/dyn/insert", InsertRequest{Records: recs}, nil)
	waitFor(t, "streamed inserts", func() bool { return caughtUp(t, lts.URL, fsrv) })
	q := `{"lo":999999999,"hi":1000001000}`
	if l, f := rawQuery(t, lts.URL, "dyn", q), rawQuery(t, fts.URL, "dyn", q); !bytes.Equal(l, f) {
		t.Fatalf("streamed range: leader %s, follower %s", l, f)
	}

	// Follower stats report its role; leader stats report the follower's
	// acknowledged watermark.
	fst := serverStats(t, fts.URL)
	if fst.Role != "follower" || fst.Leader != lts.URL {
		t.Fatalf("follower stats: %+v", fst)
	}
	if fst.SnapshotSyncs < 1 || fst.ReplApplied < 200 {
		t.Fatalf("follower sync counters: syncs=%d applied=%d", fst.SnapshotSyncs, fst.ReplApplied)
	}
	waitFor(t, "leader sees follower ack", func() bool {
		lst := serverStats(t, lts.URL)
		if lst.Role != "leader" || len(lst.Followers) != 1 {
			return false
		}
		wm := lst.Followers[0].AckWatermark["dyn"]
		return len(wm) == 1 && wm[0] >= 200 && lst.Followers[0].WithinTTL
	})
}

func TestFollowerRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	leader := newDurable(t, dir)
	defer leader.Close()
	lts := httptest.NewServer(leader)
	defer lts.Close()
	mustPost(t, lts, "/v1/indexes", CreateRequest{
		Name: "dyn", Agg: "count", Dynamic: true, Keys: data.GenTweet(500, 5), EpsAbs: 50,
	}, nil)

	fsrv, fts := newFollowerServer(t, lts.URL)
	waitFor(t, "follower catch-up", func() bool { return caughtUp(t, lts.URL, fsrv) })

	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/indexes", `{"name":"x","agg":"count","keys":[1,2,3],"eps_abs":10}`},
		{http.MethodPost, "/v1/indexes/dyn/insert", `{"records":[{"key":9,"measure":1}]}`},
		{http.MethodPost, "/v1/indexes/dyn/rebuild", `{}`},
		{http.MethodDelete, "/v1/indexes/dyn", ""},
	} {
		req, err := http.NewRequest(tc.method, fts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s %s on follower: %d, want 409", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Polyfit-Leader"); got != lts.URL {
			t.Fatalf("%s %s: leader hint %q, want %q", tc.method, tc.path, got, lts.URL)
		}
	}
}

func TestFollowerJoinsMidStream(t *testing.T) {
	dir := t.TempDir()
	leader := newDurable(t, dir)
	defer leader.Close()
	lts := httptest.NewServer(leader)
	defer lts.Close()

	// Sharded dynamic: replication must track one stream per shard WAL.
	mustPost(t, lts, "/v1/indexes", CreateRequest{
		Name: "shards", Agg: "sum", Dynamic: true, Shards: 4,
		Keys: seqKeys(2000), Measures: onesN(2000), EpsAbs: 200,
	}, nil)

	insertChunk := func(base, n int) {
		var recs []Record
		for i := 0; i < n; i++ {
			recs = append(recs, Record{Key: 1e7 + float64(base+i), Measure: 2})
		}
		mustPost(t, lts, "/v1/indexes/shards/insert", InsertRequest{Records: recs}, nil)
	}
	insertChunk(0, 300)

	fsrv, fts := newFollowerServer(t, lts.URL)
	for c := 0; c < 5; c++ {
		insertChunk(300+c*100, 100)
	}
	waitFor(t, "mid-stream catch-up", func() bool { return caughtUp(t, lts.URL, fsrv) })

	for _, q := range []string{`{"lo":0,"hi":1e9}`, `{"lo":1e7,"hi":2e7}`} {
		if l, f := rawQuery(t, lts.URL, "shards", q), rawQuery(t, fts.URL, "shards", q); !bytes.Equal(l, f) {
			t.Fatalf("%s: leader %s, follower %s", q, l, f)
		}
	}
}

func seqKeys(n int) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i) * 3
	}
	return keys
}

func onesN(n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = 1
	}
	return m
}

func TestFollowerSurvivesLeaderRestartMidStream(t *testing.T) {
	dir := t.TempDir()
	l1 := newDurable(t, dir)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	leaderURL := "http://" + addr
	hs1 := &http.Server{Handler: l1}
	go hs1.Serve(ln)

	post := func(path string, body any) {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(leaderURL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, payload)
		}
	}
	post("/v1/indexes", CreateRequest{
		Name: "dyn", Agg: "count", Dynamic: true, Keys: seqKeys(1000), EpsAbs: 100,
	})
	var recs []Record
	for i := 0; i < 100; i++ {
		recs = append(recs, Record{Key: 1e8 + float64(i), Measure: 1})
	}
	post("/v1/indexes/dyn/insert", InsertRequest{Records: recs})

	fsrv, fts := newFollowerServer(t, leaderURL)
	waitFor(t, "first catch-up", func() bool { return caughtUp(t, leaderURL, fsrv) })

	// Kill the leader process (no graceful Server.Close — the WAL must
	// carry the state) and restart it on the same address.
	hs1.Close()
	l2 := newDurable(t, dir)
	defer l2.Close()
	var ln2 net.Listener
	waitFor(t, "rebind leader address", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	hs2 := &http.Server{Handler: l2}
	go hs2.Serve(ln2)
	defer hs2.Close()

	// The new epoch forces the follower to resync, then stream again. The
	// client's pooled keep-alive connections died with the old listener,
	// so drop them and retry until the reborn leader accepts.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	var recs2 []Record
	for i := 0; i < 80; i++ {
		recs2 = append(recs2, Record{Key: 2e8 + float64(i), Measure: 1})
	}
	waitFor(t, "reborn leader accepts inserts", func() bool {
		raw, _ := json.Marshal(InsertRequest{Records: recs2})
		resp, err := http.Post(leaderURL+"/v1/indexes/dyn/insert", "application/json", bytes.NewReader(raw))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode < 300
	})
	waitFor(t, "post-restart catch-up", func() bool { return caughtUp(t, leaderURL, fsrv) })

	for _, q := range []string{`{"lo":0,"hi":1e9}`, `{"lo":99999999,"hi":200000100}`} {
		if l, f := rawQuery(t, leaderURL, "dyn", q), rawQuery(t, fts.URL, "dyn", q); !bytes.Equal(l, f) {
			t.Fatalf("%s: leader %s, follower %s", q, l, f)
		}
	}
}

// TestFollowerBitwiseIdenticalUnderStream drives a single-writer insert
// stream (the determinism contract requires one writer: concurrent
// inserts may reorder WAL append vs memory apply around a merge-rebuild
// trigger) with queries racing it on both nodes, then quiesces and
// asserts the follower's answers are byte-identical to the leader's.
func TestFollowerBitwiseIdenticalUnderStream(t *testing.T) {
	dir := t.TempDir()
	leader := newDurable(t, dir)
	defer leader.Close()
	lts := httptest.NewServer(leader)
	defer lts.Close()

	mustPost(t, lts, "/v1/indexes", CreateRequest{
		Name: "dyn", Agg: "sum", Dynamic: true,
		Keys: seqKeys(1500), Measures: onesN(1500), EpsAbs: 150,
	}, nil)
	fsrv, fts := newFollowerServer(t, lts.URL)
	waitFor(t, "initial join", func() bool { return caughtUp(t, lts.URL, fsrv) })

	stop := make(chan struct{})
	queryDone := make(chan struct{})
	go func() { // concurrent reads on both nodes while the stream runs
		defer close(queryDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Best-effort load: answers mid-stream legitimately differ
			// between the nodes; only the quiesced comparison below asserts.
			for _, url := range []string{lts.URL, fts.URL} {
				resp, err := http.Post(url+"/v1/indexes/dyn/query", "application/json",
					bytes.NewReader([]byte(`{"lo":0,"hi":1e12}`)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()

	// One writer, chunked inserts: enough volume to cross several
	// merge-rebuild thresholds on both sides.
	for chunk := 0; chunk < 20; chunk++ {
		var recs []Record
		for i := 0; i < 100; i++ {
			recs = append(recs, Record{Key: 1e9 + float64(chunk*100+i), Measure: 3})
		}
		mustPost(t, lts, "/v1/indexes/dyn/insert", InsertRequest{Records: recs}, nil)
	}
	close(stop)
	<-queryDone

	waitFor(t, "quiesce", func() bool { return caughtUp(t, lts.URL, fsrv) })
	for _, q := range []string{
		`{"lo":0,"hi":1e12}`,
		`{"lo":1e9,"hi":1000001000}`,
		`{"lo":500,"hi":3000}`,
		`{"lo":100,"hi":200000,"eps_rel":0.05}`,
	} {
		if l, f := rawQuery(t, lts.URL, "dyn", q), rawQuery(t, fts.URL, "dyn", q); !bytes.Equal(l, f) {
			t.Fatalf("%s: leader %s != follower %s", q, l, f)
		}
	}
}

// TestFollowerJoinsWithBufferSplit: a follower that joins from a snapshot
// of a SUM index with non-integer measures, whose buffer holds a main run
// and a non-empty tail, answers byte for byte like the leader, and still
// does after more inserts merge the tail again. The snapshot must carry
// the main/tail split: a follower that loaded the whole buffer as one run
// would add the same measures up in another grouping, and merge its tail
// at other records.
func TestFollowerJoinsWithBufferSplit(t *testing.T) {
	dir := t.TempDir()
	leader := newDurable(t, dir)
	defer leader.Close()
	lts := httptest.NewServer(leader)
	defer lts.Close()

	// 6,000 base keys: no merge-rebuild before 3,000 buffered records.
	mustPost(t, lts, "/v1/indexes", CreateRequest{
		Name: "dyn", Agg: "sum", Dynamic: true,
		Keys: seqKeys(6000), Measures: onesN(6000), EpsAbs: 150,
	}, nil)
	rng := rand.New(rand.NewSource(19))
	insert := func(n int) {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Key: rng.Float64() * 18000, Measure: rng.Float64() * 10}
		}
		mustPost(t, lts, "/v1/indexes/dyn/insert", InsertRequest{Records: recs}, nil)
	}
	insert(1100) // a main run of 1,024 records and a tail of 76
	fsrv, fts := newFollowerServer(t, lts.URL)
	same := func(stage string) {
		t.Helper()
		for q := 0; q < 60; q++ {
			l := rng.Float64() * 18000
			body := fmt.Sprintf(`{"lo":%g,"hi":%g}`, l, l+rng.Float64()*6000)
			if lb, fb := rawQuery(t, lts.URL, "dyn", body), rawQuery(t, fts.URL, "dyn", body); !bytes.Equal(lb, fb) {
				t.Fatalf("%s, %s: leader %s, follower %s", stage, body, lb, fb)
			}
		}
	}
	waitFor(t, "join", func() bool { return caughtUp(t, lts.URL, fsrv) })
	same("after the join")
	insert(1000) // the tail fills and merges into main again
	waitFor(t, "streamed inserts", func() bool { return caughtUp(t, lts.URL, fsrv) })
	same("after more inserts")
}

// TestTruncationGatedOnSlowFollower proves the leader holds WAL truncation
// back to the slowest live follower's acknowledged sequence.
func TestTruncationGatedOnSlowFollower(t *testing.T) {
	dir := t.TempDir()
	s := newDurable(t, dir)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	mustPost(t, ts, "/v1/indexes", CreateRequest{
		Name: "dyn", Agg: "count", Dynamic: true, Keys: seqKeys(200), EpsAbs: 50,
	}, nil)
	var recs []Record
	for i := 0; i < 50; i++ {
		recs = append(recs, Record{Key: 1e6 + float64(i), Measure: 1})
	}
	mustPost(t, ts, "/v1/indexes/dyn/insert", InsertRequest{Records: recs}, nil)

	s.mu.RLock()
	e := s.indexes["dyn"]
	s.mu.RUnlock()
	if e == nil || e.wal == nil {
		t.Fatal("no WAL entry")
	}
	instance, _ := s.replCoords(e)

	// A follower acknowledged only sequence 10: a snapshot must keep the
	// log from there on.
	s.acks.record("lagger", "dyn", instance, []int64{10})
	if err := s.snapshotEntry("dyn", e); err != nil {
		t.Fatal(err)
	}
	if got := e.wal.Records(); got != 40 {
		t.Fatalf("WAL holds %d records after gated snapshot, want 40 (50 minus ack 10)", got)
	}

	// The follower catches up; the next snapshot may drop everything.
	s.acks.record("lagger", "dyn", instance, []int64{50})
	if err := s.snapshotEntry("dyn", e); err != nil {
		t.Fatal(err)
	}
	if got := e.wal.Records(); got != 0 {
		t.Fatalf("WAL holds %d records after acked snapshot, want 0", got)
	}

	// Replication coordinates still advance past the truncated prefix.
	if _, seqs := s.replCoords(e); len(seqs) != 1 || seqs[0] != 50 {
		t.Fatalf("end seqs %v, want [50]", seqs)
	}
}
