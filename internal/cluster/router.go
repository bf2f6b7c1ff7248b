package cluster

// The router is the client-facing front of a replica set: it probes every
// replica's health and staleness, forwards writes to the leader, and fans
// reads over the healthy replicas with hedged requests — a second attempt
// fired after a short delay so one slow replica cannot drag the tail
// latency of the whole tier (the first 2xx wins, the loser is canceled).
//
// Read candidates are gated on staleness: a request may carry a
// max_staleness_ms JSON field (backends ignore it), and replicas whose
// reported lag — extrapolated since the last probe — exceeds the gate are
// excluded rather than allowed to serve an answer older than the client
// tolerates. The gate is a contract, not a preference: if no replica
// qualifies the router answers 503 instead of silently serving stale.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	polyfit "repro"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Replicas are the base URLs of the serving processes (leader and
	// followers, in any order — roles are discovered by probing).
	Replicas []string
	// HedgeDelay is how long the primary read attempt runs alone before a
	// hedge is fired at the next-fastest replica. 0 means the 2ms default;
	// negative disables hedging.
	HedgeDelay time.Duration
	// ProbeInterval is the health-probe period (default 250ms).
	ProbeInterval time.Duration
	// MaxStaleness is the default read staleness gate applied when a
	// request carries no max_staleness_ms of its own. 0 means no gate.
	MaxStaleness time.Duration
	// AttemptTimeout bounds each proxied attempt (default 5s).
	AttemptTimeout time.Duration
	// HTTP overrides the transport (tests); nil uses a dedicated client.
	HTTP *http.Client
	// Logf receives router diagnostics; nil silences them.
	Logf func(format string, args ...any)
	// Placements are sharded indexes split across processes; requests for
	// a placed index fan out over its owning nodes instead of the replica
	// set. See PlacedIndex.
	Placements []*PlacedIndex
}

// Router is an http.Handler that fronts a replica set. Create with
// NewRouter, stop with Close.
type Router struct {
	cfg      RouterConfig
	client   *http.Client
	replicas []*replica
	placed   map[string]*PlacedIndex

	stop chan struct{}
	done chan struct{}

	proxied     atomic.Int64
	hedged      atomic.Int64
	hedgeWins   atomic.Int64
	routeErrors atomic.Int64
	placedReqs  atomic.Int64
}

// replica is the router's view of one backend process. All fields are
// atomics: the probe loop and request paths read and write them freely.
type replica struct {
	base string

	healthy   atomic.Bool
	role      atomic.Value // string: "leader" | "follower" | ""
	staleness atomic.Int64 // ms, as of probedNano
	probedAt  atomic.Int64 // unix nanos of the last successful probe
	ewmaUS    atomic.Int64 // smoothed request latency, microseconds
	errs      atomic.Int64
}

// observe folds a request latency sample into the replica's EWMA.
func (rp *replica) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	for {
		old := rp.ewmaUS.Load()
		next := us
		if old > 0 {
			next = (old*4 + us) / 5
		}
		if rp.ewmaUS.CompareAndSwap(old, next) {
			return
		}
	}
}

// effectiveStalenessMS extrapolates the probed staleness to now: a
// follower's lag keeps growing between probes unless it catches up again.
func (rp *replica) effectiveStalenessMS(now time.Time) int64 {
	at := rp.probedAt.Load()
	if at == 0 {
		return 1 << 40 // never probed successfully: unknown, assume stale
	}
	since := (now.UnixNano() - at) / int64(time.Millisecond)
	if since < 0 {
		since = 0
	}
	return rp.staleness.Load() + since
}

func (rp *replica) roleString() string {
	if v, ok := rp.role.Load().(string); ok {
		return v
	}
	return ""
}

// NewRouter builds a router over cfg.Replicas and starts its probe loop.
// It probes every replica once, synchronously, before returning, so the
// first request already sees roles and health.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Replicas) == 0 && len(cfg.Placements) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one replica or placement")
	}
	for _, p := range cfg.Placements {
		if p.Agg < polyfit.Count || p.Agg > polyfit.Max || len(p.Nodes) == 0 || len(p.Cuts) != len(p.Nodes)-1 {
			return nil, fmt.Errorf("cluster: placement %q: aggregate %v over %d nodes with %d cuts",
				p.Name, p.Agg, len(p.Nodes), len(p.Cuts))
		}
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 2 * time.Millisecond
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 5 * time.Second
	}
	rt := &Router{
		cfg:    cfg,
		client: cfg.HTTP,
		placed: make(map[string]*PlacedIndex, len(cfg.Placements)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	for _, base := range cfg.Replicas {
		rt.replicas = append(rt.replicas, &replica{base: strings.TrimSuffix(base, "/")})
	}
	for _, p := range cfg.Placements {
		rt.placed[p.Name] = p
	}
	rt.probeAll()
	go rt.probeLoop()
	return rt, nil
}

// Close stops the probe loop.
func (rt *Router) Close() {
	close(rt.stop)
	<-rt.done
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

func (rt *Router) probeLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll refreshes every replica's health snapshot in parallel.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, rp := range rt.replicas {
		wg.Add(1)
		go func(rp *replica) {
			defer wg.Done()
			rt.probe(rp)
		}(rp)
	}
	wg.Wait()
}

func (rt *Router) probe(rp *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
	defer cancel()
	c := &Client{Base: rp.base, HTTP: rt.client}
	start := time.Now()
	st, err := c.Status(ctx)
	if err != nil {
		if rp.healthy.CompareAndSwap(true, false) {
			rt.logf("cluster: replica %s unhealthy: %v", rp.base, err)
		}
		rp.errs.Add(1)
		return
	}
	rp.observe(time.Since(start))
	rp.role.Store(st.Role)
	rp.staleness.Store(st.StalenessMS)
	rp.probedAt.Store(time.Now().UnixNano())
	if rp.healthy.CompareAndSwap(false, true) {
		rt.logf("cluster: replica %s healthy (%s, staleness %dms)", rp.base, st.Role, st.StalenessMS)
	}
}

// markDown records a transport failure seen on the request path so later
// requests skip the replica until a probe brings it back.
func (rt *Router) markDown(rp *replica, err error) {
	rp.errs.Add(1)
	if rp.healthy.CompareAndSwap(true, false) {
		rt.logf("cluster: replica %s failed in-flight: %v", rp.base, err)
	}
}

// isWrite classifies a request as leader-only.
func isWrite(r *http.Request) bool {
	if r.Method == http.MethodDelete {
		return true
	}
	if r.Method != http.MethodPost {
		return false
	}
	p := r.URL.Path
	if p == "/v1/indexes" {
		return true
	}
	for _, suffix := range []string{"/insert", "/rebuild", "/restore"} {
		if strings.HasSuffix(p, suffix) {
			return true
		}
	}
	return false
}

// placedName extracts the index name if the path addresses a data-plane
// route of a placed index.
func (rt *Router) placedName(path string) (*PlacedIndex, string) {
	rest, ok := strings.CutPrefix(path, "/v1/indexes/")
	if !ok {
		return nil, ""
	}
	name, op, ok := strings.Cut(rest, "/")
	if !ok {
		return nil, ""
	}
	if p := rt.placed[name]; p != nil {
		return p, op
	}
	return nil, ""
}

// ServeHTTP routes one client request.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/stats":
		rt.serveStats(w)
		return
	case "/healthz":
		rt.serveHealthz(w)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<30))
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return
	}
	if p, op := rt.placedName(r.URL.Path); p != nil {
		rt.servePlaced(w, r, p, op, body)
		return
	}
	if isWrite(r) {
		rt.forwardWrite(w, r, body)
		return
	}
	rt.forwardRead(w, r, body)
}

// forwardWrite proxies a mutating request to the leader, un-hedged: a
// write raced against itself could double-apply.
func (rt *Router) forwardWrite(w http.ResponseWriter, r *http.Request, body []byte) {
	var leader *replica
	for _, rp := range rt.replicas {
		if rp.healthy.Load() && rp.roleString() == "leader" {
			leader = rp
			break
		}
	}
	if leader == nil {
		rt.routeErrors.Add(1)
		writeRouterError(w, http.StatusServiceUnavailable, fmt.Errorf("no healthy leader"))
		return
	}
	rt.proxied.Add(1)
	res, err := rt.attempt(r.Context(), leader, r, body)
	if err != nil {
		rt.markDown(leader, err)
		rt.routeErrors.Add(1)
		writeRouterError(w, http.StatusBadGateway, fmt.Errorf("leader %s: %w", leader.base, err))
		return
	}
	res.writeTo(w)
}

// readCandidates returns the replicas eligible for a read under the gate,
// fastest first. gated reports whether the staleness gate (rather than
// health) excluded every replica.
func (rt *Router) readCandidates(maxStalenessMS int64) (cands []*replica, gated bool) {
	now := time.Now()
	var healthy []*replica
	for _, rp := range rt.replicas {
		if !rp.healthy.Load() {
			continue
		}
		healthy = append(healthy, rp)
		if maxStalenessMS > 0 && rp.roleString() != "leader" && rp.effectiveStalenessMS(now) > maxStalenessMS {
			continue
		}
		cands = append(cands, rp)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].ewmaUS.Load() < cands[j].ewmaUS.Load()
	})
	return cands, len(cands) == 0 && len(healthy) > 0
}

// stalenessGate resolves the request's staleness bound: an explicit
// max_staleness_ms field wins, otherwise the router default applies.
func (rt *Router) stalenessGate(body []byte) int64 {
	if len(body) > 0 && len(body) < 1<<20 {
		var peek struct {
			MaxStalenessMS *int64 `json:"max_staleness_ms"`
		}
		if json.Unmarshal(body, &peek) == nil && peek.MaxStalenessMS != nil {
			return *peek.MaxStalenessMS
		}
	}
	return rt.cfg.MaxStaleness.Milliseconds()
}

// forwardRead proxies a read with hedging: the fastest candidate gets
// HedgeDelay alone, then the next candidate races it; an errored attempt
// triggers the next candidate immediately. First 2xx–4xx wins.
func (rt *Router) forwardRead(w http.ResponseWriter, r *http.Request, body []byte) {
	cands, gated := rt.readCandidates(rt.stalenessGate(body))
	if len(cands) == 0 {
		rt.routeErrors.Add(1)
		if gated {
			writeRouterError(w, http.StatusServiceUnavailable, fmt.Errorf("no replica within the staleness bound"))
		} else {
			writeRouterError(w, http.StatusServiceUnavailable, fmt.Errorf("no healthy replica"))
		}
		return
	}
	rt.proxied.Add(1)

	type outcome struct {
		res   *attemptResult
		err   error
		rp    *replica
		hedge bool
	}
	ctx, cancelAll := context.WithCancel(r.Context())
	defer cancelAll()
	results := make(chan outcome, len(cands))
	launch := func(rp *replica, hedge bool) {
		go func() {
			res, err := rt.attempt(ctx, rp, r, body)
			results <- outcome{res: res, err: err, rp: rp, hedge: hedge}
		}()
	}
	launch(cands[0], false)
	next, pending := 1, 1
	var hedgeTimer <-chan time.Time
	if rt.cfg.HedgeDelay > 0 && next < len(cands) {
		tm := time.NewTimer(rt.cfg.HedgeDelay)
		defer tm.Stop()
		hedgeTimer = tm.C
	}
	var lastErr error
	for {
		select {
		case out := <-results:
			pending--
			if out.err == nil && out.res.status < http.StatusInternalServerError {
				// A definitive answer (success or a client error the
				// backend owns) wins; cancel any racing attempt.
				if out.hedge {
					rt.hedgeWins.Add(1)
				}
				out.res.writeTo(w)
				return
			}
			if out.err != nil {
				rt.markDown(out.rp, out.err)
				lastErr = fmt.Errorf("%s: %w", out.rp.base, out.err)
			} else {
				lastErr = fmt.Errorf("%s: upstream status %d", out.rp.base, out.res.status)
			}
			if next < len(cands) {
				launch(cands[next], false)
				next++
				pending++
			} else if pending == 0 {
				rt.routeErrors.Add(1)
				writeRouterError(w, http.StatusBadGateway, lastErr)
				return
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if next < len(cands) {
				rt.hedged.Add(1)
				launch(cands[next], true)
				next++
				pending++
			}
		case <-ctx.Done():
			rt.routeErrors.Add(1)
			writeRouterError(w, http.StatusGatewayTimeout, ctx.Err())
			return
		}
	}
}

// attemptResult is one buffered upstream response.
type attemptResult struct {
	status int
	header http.Header
	body   []byte
}

func (a *attemptResult) writeTo(w http.ResponseWriter) {
	for _, k := range []string{"Content-Type", "X-Polyfit-Leader"} {
		if v := a.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(a.status)
	w.Write(a.body)
}

// attempt proxies one request to one replica and buffers the response so
// a canceled loser never holds the client connection.
func (rt *Router) attempt(ctx context.Context, rp *replica, r *http.Request, body []byte) (*attemptResult, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, rp.base+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return nil, err
	}
	rp.observe(time.Since(start))
	return &attemptResult{status: resp.StatusCode, header: resp.Header, body: out}, nil
}

// RouterStats is the JSON body the router serves at /v1/stats.
type RouterStats struct {
	Role           string        `json:"role"` // "router"
	Replicas       []ReplicaStat `json:"replicas"`
	Placements     []string      `json:"placements,omitempty"`
	Proxied        int64         `json:"proxied"`
	HedgedRequests int64         `json:"hedged_requests"`
	HedgeWins      int64         `json:"hedge_wins"`
	PlacedRequests int64         `json:"placed_requests,omitempty"`
	RouteErrors    int64         `json:"route_errors"`
}

// ReplicaStat is one replica's health row in RouterStats.
type ReplicaStat struct {
	Base        string  `json:"base"`
	Healthy     bool    `json:"healthy"`
	Role        string  `json:"role,omitempty"`
	StalenessMS int64   `json:"staleness_ms"`
	LatencyMS   float64 `json:"latency_ms"` // EWMA of proxied request latency
	Errors      int64   `json:"errors,omitempty"`
}

func (rt *Router) serveStats(w http.ResponseWriter) {
	now := time.Now()
	st := RouterStats{
		Role:           "router",
		Proxied:        rt.proxied.Load(),
		HedgedRequests: rt.hedged.Load(),
		HedgeWins:      rt.hedgeWins.Load(),
		PlacedRequests: rt.placedReqs.Load(),
		RouteErrors:    rt.routeErrors.Load(),
	}
	for _, rp := range rt.replicas {
		stale := int64(0)
		if rp.healthy.Load() {
			stale = rp.effectiveStalenessMS(now)
		}
		st.Replicas = append(st.Replicas, ReplicaStat{
			Base:        rp.base,
			Healthy:     rp.healthy.Load(),
			Role:        rp.roleString(),
			StalenessMS: stale,
			LatencyMS:   float64(rp.ewmaUS.Load()) / 1e3,
			Errors:      rp.errs.Load(),
		})
	}
	for name := range rt.placed {
		st.Placements = append(st.Placements, name)
	}
	sort.Strings(st.Placements)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&st)
}

func (rt *Router) serveHealthz(w http.ResponseWriter) {
	for _, rp := range rt.replicas {
		if rp.healthy.Load() {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ok\n")
			return
		}
	}
	if len(rt.replicas) == 0 && len(rt.placed) > 0 {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
		return
	}
	writeRouterError(w, http.StatusServiceUnavailable, fmt.Errorf("no healthy replica"))
}

func writeRouterError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
