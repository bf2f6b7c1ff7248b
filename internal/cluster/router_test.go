package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	polyfit "repro"
)

// fakeBackend is a scriptable replica: it serves the status probe and a
// query endpoint whose latency, status and payload the test controls.
type fakeBackend struct {
	mu         sync.Mutex
	role       string
	staleness  int64
	queryDelay time.Duration
	queryCode  int
	marker     string
	queryHits  int
	insertHits int
	lastInsert []byte
	ts         *httptest.Server
}

func newFakeBackend(role, marker string) *fakeBackend {
	b := &fakeBackend{role: role, marker: marker, queryCode: http.StatusOK}
	b.ts = httptest.NewServer(http.HandlerFunc(b.serve))
	return b
}

func (b *fakeBackend) set(f func(*fakeBackend)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f(b)
}

func (b *fakeBackend) serve(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	role, stale := b.role, b.staleness
	delay, code, marker := b.queryDelay, b.queryCode, b.marker
	b.mu.Unlock()
	switch {
	case r.URL.Path == PathStatus:
		json.NewEncoder(w).Encode(NodeStatus{Role: role, Epoch: 1, StalenessMS: stale})
	case strings.HasSuffix(r.URL.Path, "/query"):
		b.mu.Lock()
		b.queryHits++
		b.mu.Unlock()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"value":1,"found":true,"bound":0,"marker":%q}`, marker)
	case strings.HasSuffix(r.URL.Path, "/insert"):
		body, _ := io.ReadAll(r.Body)
		b.mu.Lock()
		b.insertHits++
		b.lastInsert = body
		b.mu.Unlock()
		fmt.Fprintf(w, `{"inserted":1,"durable":true}`)
	default:
		http.NotFound(w, r)
	}
}

func (b *fakeBackend) hits() (query, insert int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queryHits, b.insertHits
}

// newTestRouter builds a router over the backends with probing effectively
// frozen after the initial synchronous pass, and the replica EWMAs forced
// so backends[0] is always the primary read candidate.
func newTestRouter(t *testing.T, cfg RouterConfig, backends ...*fakeBackend) *Router {
	t.Helper()
	for _, b := range backends {
		cfg.Replicas = append(cfg.Replicas, b.ts.URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // the initial probe is the only one
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	for i, rp := range rt.replicas {
		rp.ewmaUS.Store(int64(1 + i*1000))
	}
	return rt
}

func routerGet(t *testing.T, rt *Router, method, path, body string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestRouterHedgesSlowPrimary(t *testing.T) {
	slow := newFakeBackend("leader", "slow")
	defer slow.ts.Close()
	fast := newFakeBackend("follower", "fast")
	defer fast.ts.Close()
	rt := newTestRouter(t, RouterConfig{HedgeDelay: 5 * time.Millisecond}, slow, fast)
	slow.set(func(b *fakeBackend) { b.queryDelay = 300 * time.Millisecond })

	code, body := routerGet(t, rt, http.MethodPost, "/v1/indexes/x/query", `{"lo":0,"hi":1}`)
	if code != http.StatusOK || !strings.Contains(body, `"marker":"fast"`) {
		t.Fatalf("hedge did not win: %d %s", code, body)
	}
	if rt.hedged.Load() != 1 || rt.hedgeWins.Load() != 1 {
		t.Fatalf("hedged=%d hedgeWins=%d, want 1/1", rt.hedged.Load(), rt.hedgeWins.Load())
	}
}

func TestRouterNoHedgeWhenPrimaryFast(t *testing.T) {
	a := newFakeBackend("leader", "a")
	defer a.ts.Close()
	b := newFakeBackend("follower", "b")
	defer b.ts.Close()
	rt := newTestRouter(t, RouterConfig{HedgeDelay: 200 * time.Millisecond}, a, b)

	code, body := routerGet(t, rt, http.MethodPost, "/v1/indexes/x/query", `{"lo":0,"hi":1}`)
	if code != http.StatusOK || !strings.Contains(body, `"marker":"a"`) {
		t.Fatalf("primary should answer: %d %s", code, body)
	}
	if rt.hedged.Load() != 0 {
		t.Fatalf("hedged=%d, want 0", rt.hedged.Load())
	}
	if _, bq := b.hits(); bq != 0 {
		qh, _ := b.hits()
		t.Fatalf("secondary saw %d queries, want 0", qh)
	}
}

func TestRouterFailsOverOn5xx(t *testing.T) {
	bad := newFakeBackend("leader", "bad")
	defer bad.ts.Close()
	good := newFakeBackend("follower", "good")
	defer good.ts.Close()
	rt := newTestRouter(t, RouterConfig{HedgeDelay: -1}, bad, good)
	bad.set(func(b *fakeBackend) { b.queryCode = http.StatusInternalServerError })

	code, body := routerGet(t, rt, http.MethodPost, "/v1/indexes/x/query", `{"lo":0,"hi":1}`)
	if code != http.StatusOK || !strings.Contains(body, `"marker":"good"`) {
		t.Fatalf("failover miss: %d %s", code, body)
	}
}

func TestRouterMarksDeadReplicaDown(t *testing.T) {
	dead := newFakeBackend("follower", "dead")
	live := newFakeBackend("leader", "live")
	defer live.ts.Close()
	rt := newTestRouter(t, RouterConfig{HedgeDelay: -1}, dead, live)
	dead.ts.Close() // dies after the initial probe

	for i := 0; i < 3; i++ {
		code, body := routerGet(t, rt, http.MethodPost, "/v1/indexes/x/query", `{"lo":0,"hi":1}`)
		if code != http.StatusOK || !strings.Contains(body, `"marker":"live"`) {
			t.Fatalf("request %d: %d %s", i, code, body)
		}
	}
	if rt.replicas[0].healthy.Load() {
		t.Fatal("dead replica still marked healthy after in-flight failure")
	}
}

func TestRouterStalenessGate(t *testing.T) {
	leader := newFakeBackend("leader", "leader")
	defer leader.ts.Close()
	stale := newFakeBackend("follower", "stale")
	defer stale.ts.Close()
	stale.set(func(b *fakeBackend) { b.staleness = 60_000 })
	rt := newTestRouter(t, RouterConfig{HedgeDelay: -1}, stale, leader) // stale is primary by EWMA

	// A bounded read must skip the stale follower even though it is the
	// faster candidate.
	code, body := routerGet(t, rt, http.MethodPost, "/v1/indexes/x/query",
		`{"lo":0,"hi":1,"max_staleness_ms":100}`)
	if code != http.StatusOK || !strings.Contains(body, `"marker":"leader"`) {
		t.Fatalf("gated read: %d %s", code, body)
	}
	// An unbounded read takes the fast follower.
	code, body = routerGet(t, rt, http.MethodPost, "/v1/indexes/x/query", `{"lo":0,"hi":1}`)
	if code != http.StatusOK || !strings.Contains(body, `"marker":"stale"`) {
		t.Fatalf("ungated read: %d %s", code, body)
	}
}

func TestRouterStalenessGateExhausted(t *testing.T) {
	f1 := newFakeBackend("follower", "f1")
	defer f1.ts.Close()
	f2 := newFakeBackend("follower", "f2")
	defer f2.ts.Close()
	f1.set(func(b *fakeBackend) { b.staleness = 60_000 })
	f2.set(func(b *fakeBackend) { b.staleness = 60_000 })
	rt := newTestRouter(t, RouterConfig{HedgeDelay: -1}, f1, f2)

	code, body := routerGet(t, rt, http.MethodPost, "/v1/indexes/x/query",
		`{"lo":0,"hi":1,"max_staleness_ms":50}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "staleness") {
		t.Fatalf("want 503 staleness refusal, got %d %s", code, body)
	}
}

func TestRouterWritesGoToLeaderOnly(t *testing.T) {
	follower := newFakeBackend("follower", "f")
	defer follower.ts.Close()
	leader := newFakeBackend("leader", "l")
	defer leader.ts.Close()
	rt := newTestRouter(t, RouterConfig{}, follower, leader) // follower is fastest

	code, _ := routerGet(t, rt, http.MethodPost, "/v1/indexes/x/insert",
		`{"records":[{"key":1,"measure":1}]}`)
	if code != http.StatusOK {
		t.Fatalf("insert via router: %d", code)
	}
	if _, ins := leader.hits(); ins != 1 {
		t.Fatalf("leader saw %d inserts, want 1", ins)
	}
	if _, ins := follower.hits(); ins != 0 {
		t.Fatalf("follower saw %d inserts, want 0", ins)
	}
}

func TestRouterWriteWithoutLeader(t *testing.T) {
	f := newFakeBackend("follower", "f")
	defer f.ts.Close()
	rt := newTestRouter(t, RouterConfig{}, f)
	code, body := routerGet(t, rt, http.MethodPost, "/v1/indexes/x/insert", `{"records":[]}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "leader") {
		t.Fatalf("want 503 no-leader, got %d %s", code, body)
	}
}

func TestRouterStatsAndHealthz(t *testing.T) {
	leader := newFakeBackend("leader", "l")
	defer leader.ts.Close()
	rt := newTestRouter(t, RouterConfig{}, leader)

	routerGet(t, rt, http.MethodPost, "/v1/indexes/x/query", `{"lo":0,"hi":1}`)
	code, body := routerGet(t, rt, http.MethodGet, "/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var st RouterStats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "router" || st.Proxied != 1 || len(st.Replicas) != 1 || !st.Replicas[0].Healthy {
		t.Fatalf("stats: %+v", st)
	}
	if code, _ := routerGet(t, rt, http.MethodGet, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
}

func TestRouterPlacedFanout(t *testing.T) {
	n0 := newFakeBackend("", "n0")
	defer n0.ts.Close()
	n1 := newFakeBackend("", "n1")
	defer n1.ts.Close()
	p := &PlacedIndex{
		Name: "placed", Agg: polyfit.Sum,
		Cuts:  []float64{10},
		Nodes: []string{n0.ts.URL, n1.ts.URL},
	}
	rt, err := NewRouter(RouterConfig{Placements: []*PlacedIndex{p}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Reads fan out to every node and merge: both fakes answer value 1.
	code, body := routerGet(t, rt, http.MethodPost, "/v1/indexes/placed/query", `{"lo":0,"hi":100}`)
	if code != http.StatusOK {
		t.Fatalf("placed query: %d %s", code, body)
	}
	var qa queryAnswer
	if err := json.Unmarshal([]byte(body), &qa); err != nil {
		t.Fatal(err)
	}
	if qa.Value != 2 || !qa.Found {
		t.Fatalf("placed merge: %+v", qa)
	}

	// Inserts are partitioned by the cut: key 5 to node 0, key 15 to node 1.
	code, body = routerGet(t, rt, http.MethodPost, "/v1/indexes/placed/insert",
		`{"records":[{"key":5,"measure":1},{"key":15,"measure":2}]}`)
	if code != http.StatusOK {
		t.Fatalf("placed insert: %d %s", code, body)
	}
	n0.mu.Lock()
	in0 := string(n0.lastInsert)
	n0.mu.Unlock()
	n1.mu.Lock()
	in1 := string(n1.lastInsert)
	n1.mu.Unlock()
	if !strings.Contains(in0, `"key":5`) || strings.Contains(in0, `"key":15`) {
		t.Fatalf("node0 insert body %s", in0)
	}
	if !strings.Contains(in1, `"key":15`) || strings.Contains(in1, `"key":5,`) {
		t.Fatalf("node1 insert body %s", in1)
	}
}

func TestIsWrite(t *testing.T) {
	for _, tc := range []struct {
		method, path string
		want         bool
	}{
		{http.MethodPost, "/v1/indexes", true},
		{http.MethodPost, "/v1/indexes/x/insert", true},
		{http.MethodPost, "/v1/indexes/x/rebuild", true},
		{http.MethodPost, "/v1/indexes/x/restore", true},
		{http.MethodDelete, "/v1/indexes/x", true},
		{http.MethodPost, "/v1/indexes/x/query", false},
		{http.MethodPost, "/v1/indexes/x/batch", false},
		{http.MethodGet, "/v1/indexes", false},
		{http.MethodGet, "/v1/indexes/x/marshal", false},
	} {
		r := httptest.NewRequest(tc.method, tc.path, nil)
		if got := isWrite(r); got != tc.want {
			t.Errorf("isWrite(%s %s) = %v, want %v", tc.method, tc.path, got, tc.want)
		}
	}
}
