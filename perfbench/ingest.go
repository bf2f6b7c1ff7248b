package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	polyfit "repro"
	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/server"
)

// The ingest workload: a durable leader with its data dir on the host disk,
// one follower joined to it, and a router over both. One connection posts
// durable insert batches through the router in a closed loop; the other
// sends open-loop point COUNT reads through the router. The index is a
// dynamic COUNT over a 200k-key base drawn from 1M GenTweet keys; the
// other keys, in seeded order, are the insert stream, so no insert is a
// duplicate.

const (
	ingestBase     = 200_000
	ingestKeys     = 1_000_000
	insertBatch    = 64
	ingestReadRate = 150.0 // reads/s
	// ingestSnapshot is shorter than the server's 15 s default so that
	// background snapshots complete several cycles within one run.
	ingestSnapshot = 2 * time.Second
	lagEvery       = 100 * time.Millisecond
)

var errExhausted = errors.New("insert stream exhausted")

type ingestStack struct {
	dir      string
	fs       *timingFS
	inflight atomic.Uint64
	leader   *server.Server
	follower *server.Server
	router   *cluster.Router
	ln, fn   *node
	rn       *node
	req      server.CreateRequest
	ins, rd  *client // both through the router
	rep      polyfit.Index

	base   []float64
	exact  []float64 // over the base
	pool   [][2]float64
	stream []float64 // insert order
	sorted []float64 // the stream, sorted
	rank   []int32   // stream[i]'s position in sorted

	mu    sync.Mutex
	fw    fenwick // stream records sent so far, by sorted position
	sent  int
	acked atomic.Int64
}

func setupIngest(b *bench, n int) (*ingestStack, error) {
	s := &ingestStack{dir: filepath.Join(b.workdir, fmt.Sprintf("ingest-%d", n))}
	all := data.GenTweet(ingestKeys, tweetSeed)
	rng := rand.New(rand.NewSource(b.seed + 3))
	perm := rng.Perm(len(all))
	for _, i := range perm[:ingestBase] {
		s.base = append(s.base, all[i])
	}
	sort.Float64s(s.base)
	for _, i := range perm[ingestBase:] {
		s.stream = append(s.stream, all[i])
	}
	s.sorted = append([]float64(nil), s.stream...)
	sort.Float64s(s.sorted)
	s.rank = make([]int32, len(s.stream))
	for i, k := range s.stream {
		s.rank[i] = int32(sort.SearchFloat64s(s.sorted, k))
	}
	s.fw = make(fenwick, len(s.stream)+1)
	s.pool = paperRanges(rng, s.base, poolSize)
	cr := countRef{s.base}
	for _, r := range s.pool {
		s.exact = append(s.exact, cr.count(r[0], r[1]))
	}
	b.markHeap()

	var err error
	for _, nd := range []**node{&s.ln, &s.fn, &s.rn} {
		if *nd, err = listen(); err != nil {
			s.close()
			return nil, err
		}
	}
	s.fs = newTimingFS(b.tr, &s.inflight)
	s.leader, err = server.NewDurable(server.Config{DataDir: s.dir, FS: s.fs, SnapshotInterval: ingestSnapshot, Advertise: s.ln.url})
	if err != nil {
		s.close()
		return nil, err
	}
	s.ln.start(traced(s.leader, b.tr, "server", &s.inflight))
	s.req = server.CreateRequest{Name: "tweet", Agg: "count", Dynamic: true, Keys: s.base, EpsAbs: epsAbs}
	if _, err := s.leader.Create(owned(s.req)); err != nil {
		s.close()
		return nil, fmt.Errorf("create: %w", err)
	}
	if s.follower, err = server.NewDurable(server.Config{Join: s.ln.url, Advertise: s.fn.url}); err != nil {
		s.close()
		return nil, err
	}
	s.fn.start(traced(s.follower, b.tr, "server", nil))
	var upstream http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
	if b.tr != nil {
		upstream = &timingTransport{inner: upstream, tr: b.tr, peers: map[string]string{host(s.ln.url): "leader", host(s.fn.url): "follower"}}
	}
	s.router, err = cluster.NewRouter(cluster.RouterConfig{Replicas: []string{s.ln.url, s.fn.url}, HTTP: &http.Client{Transport: upstream}})
	if err != nil {
		s.close()
		return nil, err
	}
	s.rn.start(traced(s.router, b.tr, "cluster", nil))
	s.ins, s.rd = newClient(s.rn.url, b.tr), newClient(s.rn.url, b.tr)
	if err := s.waitCaughtUp(30 * time.Second); err != nil {
		s.close()
		return nil, err
	}
	if b.tr != nil {
		lc := newClient(s.ln.url, nil)
		s.rep, err = replica(b, lc, s.req)
		lc.closeIdle()
		if err != nil {
			s.close()
			return nil, err
		}
	}
	for i := 0; i < 500; i++ { // warm-up through the router
		s.read(b, context.Background(), i%poolSize) //nolint:errcheck // tallied inside
	}
	return s, nil
}

func host(u string) string {
	p, err := url.Parse(u)
	if err != nil {
		return ""
	}
	return p.Host
}

// waitCaughtUp waits until the follower serves the index with as many
// records as the leader and the router sees both replicas healthy.
func (s *ingestStack) waitCaughtUp(limit time.Duration) error {
	lc, fc, rc := newClient(s.ln.url, nil), newClient(s.fn.url, nil), newClient(s.rn.url, nil)
	defer lc.closeIdle()
	defer fc.closeIdle()
	defer rc.closeIdle()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		var l, f indexStats
		var rs struct {
			Replicas []struct{ Healthy bool }
		}
		if lc.get("/v1/indexes/tweet", &l) == nil && fc.get("/v1/indexes/tweet", &f) == nil &&
			l.Records == f.Records && rc.get("/v1/stats", &rs) == nil &&
			len(rs.Replicas) == 2 && rs.Replicas[0].Healthy && rs.Replicas[1].Healthy {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("follower did not catch up with the leader")
}

// close shuts the stack down gracefully and removes the data dir.
func (s *ingestStack) close() {
	for _, c := range []*client{s.ins, s.rd} {
		if c != nil {
			c.closeIdle()
		}
	}
	if s.rn != nil {
		s.rn.close()
	}
	if s.router != nil {
		s.router.Close()
	}
	if s.fn != nil {
		s.fn.close()
	}
	if s.follower != nil {
		s.follower.Close() //nolint:errcheck // in-memory follower
	}
	if s.ln != nil {
		s.ln.close()
	}
	if s.leader != nil {
		s.leader.Close() //nolint:errcheck // the data dir is removed next
	}
	os.RemoveAll(s.dir)
}

// sentIn returns how many stream records sent so far fall in (lo, hi].
func (s *ingestStack) sentIn(lo, hi float64) float64 {
	cr := countRef{s.sorted}
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.fw.sum(cr.prefix(hi)) - s.fw.sum(cr.prefix(lo)))
}

// read sends one COUNT read of pool range i through the router. The exact
// answer lies between the base count (a follower may not have applied any
// insert yet) and the base count plus every record sent before the answer
// arrived.
func (s *ingestStack) read(b *bench, ctx context.Context, i int) (answer, error) {
	r := s.pool[i]
	var a answer
	err := s.rd.do(ctx, http.MethodPost, "/v1/indexes/tweet/query", queryBody(r[0], r[1], 0), &a)
	if !b.tally.result(err) {
		return a, err
	}
	low := s.exact[i]
	if high := low + s.sentIn(r[0], r[1]); !within(a.Value, low, high, a.Bound) {
		b.tally.fail("bound_violation", 1)
		return a, errViolation
	}
	return a, nil
}

// insert sends the seq-th batch of the stream and returns its latency to a
// durable acknowledgement.
func (s *ingestStack) insert(b *bench, ctx context.Context, seq int) (time.Duration, error) {
	lo := seq * insertBatch
	if lo >= len(s.stream) {
		<-ctx.Done()
		return 0, errExhausted
	}
	hi := min(lo+insertBatch, len(s.stream))
	s.mu.Lock()
	for i := lo; i < hi; i++ {
		s.fw.add(int(s.rank[i]))
	}
	s.sent = hi
	s.mu.Unlock()
	var resp struct {
		Inserted int  `json:"inserted"`
		Durable  bool `json:"durable"`
	}
	rctx := context.Background()
	if b.tr.enabled() {
		rctx = withTag(rctx, int64(seq))
	}
	t0 := time.Now()
	err := s.ins.do(rctx, http.MethodPost, "/v1/indexes/tweet/insert", insertBody(s.stream[lo:hi]), &resp)
	lat := time.Since(t0)
	if !b.tally.result(err) {
		return lat, err
	}
	if resp.Inserted != hi-lo || !resp.Durable {
		b.tally.fail("insert_not_durable", 1)
		return lat, fmt.Errorf("inserted %d of %d, durable %v", resp.Inserted, hi-lo, resp.Durable)
	}
	s.acked.Add(int64(hi - lo))
	return lat, nil
}

func runIngest(b *bench) error {
	n := 0
	s, err := repeatSetup(b, func() (*ingestStack, error) { n++; return setupIngest(b, n) }, (*ingestStack).close)
	if err != nil {
		return err
	}
	b.note("config", map[string]any{
		"base_keys": ingestBase, "generated_keys": ingestKeys, "insert_batch": insertBatch, "eps_abs": epsAbs,
		"read_rate": ingestReadRate, "conns": "1 closed-loop insert + 1 open-loop read, both via the router",
		"flush_policy":   "one fsync per acknowledged insert request; background snapshots every 2s",
		"rebuild_policy": "merge when buffer >= records/8", "seed": b.seed,
	})
	admins := []*client{newClient(s.ln.url, nil), newClient(s.fn.url, nil), newClient(s.rn.url, nil)}
	defer func() {
		for _, c := range admins {
			c.closeIdle()
		}
	}()
	snap := func() []map[string]float64 {
		return []map[string]float64{counters(admins[0]), counters(admins[1]), counters(admins[2])}
	}
	if b.tr != nil {
		b.tr.take() // drop set-up spans
	}
	before := snap()
	ctx, cancel := context.WithTimeout(context.Background(), b.runFor())
	defer cancel()
	var lag dist
	var wg sync.WaitGroup
	if b.tr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.sampleLag(ctx, admins[1], &lag)
		}()
	}
	var inserts [][]sample
	t0 := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		inserts = closedLoop(ctx, 1, func(_, seq int) (time.Duration, error) { return s.insert(b, ctx, seq) })
	}()
	rng := rand.New(rand.NewSource(b.seed + 5))
	dues := poissonDues(rng, ingestReadRate, b.runFor())
	idx := make([]int, len(dues))
	for i := range idx {
		idx[i] = rng.Intn(poolSize)
	}
	reads, started, err := openLoop(ctx, time.Now(), dues, func(i int) error {
		rctx := context.Background()
		if b.tr.enabled() {
			rctx = withTag(rctx, int64(i))
		}
		_, err := s.read(b, rctx, idx[i])
		return err
	})
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	// The leader's process dies right after the last acknowledgement, before
	// a background snapshot can cover what its WAL holds: its data dir is
	// cut back to what was fsynced, and reopened below.
	if cerr := s.fs.crash(); err == nil && cerr != nil {
		err = fmt.Errorf("crash the leader's data dir: %w", cerr)
	}
	if err != nil {
		s.close()
		return err
	}
	if b.tr != nil {
		b.tr.paused.Store(true)
	}
	after := snap()

	var rl, late, il dist
	for i, x := range reads {
		l := float64(x.lat) / 1e3
		if !started[i] || x.err != nil {
			l = math.Inf(1)
		}
		rl.add(l)
		late.add(float64(x.late) / 1e3)
	}
	batches := 0
	for _, x := range inserts[0] {
		if errors.Is(x.err, errExhausted) {
			continue
		}
		batches++
		il.add(float64(x.lat) / 1e3)
	}
	p50, p99 := rl.at(0.5), rl.at(0.99)
	b.set("read_p50_us", finite(p50.Value), "us")
	b.set("read_p99_us", finite(p99.Value), "us")
	b.set("work_per_s", float64(s.acked.Load())/elapsed, "1/s")
	b.note("read_p99", p99)
	b.note("insert_us", map[string]any{"p50": il.at(0.5), "p99": il.at(0.99)})
	b.note("records", map[string]int64{"sent": int64(s.sent), "acked": s.acked.Load()})
	re, err := s.reopen(b)
	if err != nil {
		return err
	}
	defer re.close()
	// On the reopened leader, fold the delta buffer into the base first, so
	// the accuracy and space figures do not depend on where in a merge
	// cycle the run stopped.
	if !b.tally.result(re.c.do(context.Background(), http.MethodPost, "/v1/indexes/tweet/rebuild", nil, nil)) {
		return errors.New("forced rebuild failed")
	}
	s.finalAccuracy(b, re.c, re.stream)
	if err := spaceMetrics(b, re.c); err != nil {
		return err
	}
	if err := s.spaceAcrossStops(b, re); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	b.set("loadgen.late_us.p99", late.at(0.99).Value, "us")
	serverCounters(b, before, after, float64(len(reads)))
	s.clusterCounters(b, before, after, &lag)
	s.analyze(b, batches)
	return nil
}

// sampleLag records the follower's reported staleness until ctx ends.
func (s *ingestStack) sampleLag(ctx context.Context, fc *client, lag *dist) {
	t := time.NewTicker(lagEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if st := counters(fc); len(st) > 0 {
				lag.add(st["staleness_ms"]) // omitted when zero
			}
		}
	}
}

// finalAccuracy sweeps the reopened leader once the inserts it recovered
// are folded into the base, with ranges drawn over its key set (the base
// and the first n stream records), so the exact answer is known and every
// endpoint is a key.
func (s *ingestStack) finalAccuracy(b *bench, c *client, n int) {
	keys := append(append([]float64(nil), s.base...), s.stream[:n]...)
	sort.Float64s(keys)
	ranges := paperRanges(rand.New(rand.NewSource(b.seed+9)), keys, poolSize)
	cr := countRef{keys}
	exact := make([]float64, len(ranges))
	for i, r := range ranges {
		exact[i] = cr.count(r[0], r[1])
	}
	var acc accuracy
	acc.sweep(b, c, "tweet", ranges, exact)
	b.set("rel_err_mean", acc.errMean(), "ratio")
	b.set("bound_rel_mean", acc.boundMean(), "ratio")
}

// Stopping points over which ingest takes index_bytes_per_key.
const (
	spaceStops      = 5
	spaceStopStride = 97 * insertBatch // records between stopping points
)

// spaceAcrossStops sets index_bytes_per_key to the median over the
// reopened leader's index and indexes the reopened server creates, with
// the leader's create request, over the base and shorter prefixes of the
// stream. Whether a build certifies its compact packed encoding depends
// on the exact key set (about one set in twenty falls back to raw lanes,
// 3.5 times the bytes), and where a run stops is set by its throughput, so
// one stopping point alone would make the figure jump between runs. It
// runs after spaceMetrics, whose index listing must not see these indexes.
func (s *ingestStack) spaceAcrossStops(b *bench, re *reopened) error {
	per := []float64{b.metrics["index_bytes_per_key"].Value}
	for k := 1; k < spaceStops && re.stream >= k*spaceStopStride; k++ {
		req := s.req
		req.Name = fmt.Sprintf("tweet-stop-%d", k)
		req.Keys = append(append([]float64(nil), s.base...), s.stream[:re.stream-k*spaceStopStride]...)
		sort.Float64s(req.Keys)
		st, err := re.srv.Create(req)
		if err != nil {
			return fmt.Errorf("create %s: %w", req.Name, err)
		}
		per = append(per, ratio(float64(st.IndexBytes), float64(st.Records)))
	}
	b.note("index_bytes_per_key_at_stops", per)
	sort.Float64s(per)
	b.set("index_bytes_per_key", per[len(per)/2], "B/key")
	return nil
}

// reopened is the leader's data dir opened by a fresh server after the
// crash, served on a loopback listener of its own.
type reopened struct {
	srv    *server.Server
	nd     *node
	c      *client
	dir    string
	stream int // insert-stream records it recovered
}

func (r *reopened) close() {
	r.c.closeIdle()
	r.nd.close()
	r.srv.Close() //nolint:errcheck // the data dir is removed next
	os.RemoveAll(r.dir)
}

// reopen abandons the leader, whose filesystem has crashed, without Close,
// shuts the router and follower down, and has a fresh server reopen the
// data dir. Every durably acknowledged insert must be there. The recovered
// records are a prefix of the insert stream, since the WAL holds them in
// the order they were sent.
func (s *ingestStack) reopen(b *bench) (*reopened, error) {
	s.ins.closeIdle()
	s.rd.closeIdle()
	s.rn.close()
	s.router.Close()
	s.fn.close()
	s.follower.Close() //nolint:errcheck // in-memory follower
	s.ln.close()
	t0 := time.Now()
	srv, err := server.NewDurable(server.Config{DataDir: s.dir, SnapshotInterval: -1})
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, fmt.Errorf("reopen data dir: %w", err)
	}
	nd, err := listen()
	if err != nil {
		srv.Close() //nolint:errcheck // the data dir is removed next
		os.RemoveAll(s.dir)
		return nil, err
	}
	nd.start(srv)
	r := &reopened{srv: srv, nd: nd, c: newClient(nd.url, nil), dir: s.dir}
	want := int64(ingestBase) + s.acked.Load()
	var st indexStats
	b.tally.add(1)
	if err := r.c.get("/v1/indexes/tweet", &st); err != nil {
		b.tally.fail("lost_insert", s.acked.Load())
		r.close()
		return nil, fmt.Errorf("reopened data dir has no index: %w", err)
	}
	got := int64(st.Records)
	if lost := want - got; lost > 0 {
		b.tally.fail("lost_insert", lost)
	}
	r.stream = int(min(max(got-ingestBase, 0), int64(s.sent)))
	b.note("recovery", map[string]any{
		"want_at_least": want, "got": got, "wal_records_replayed": srv.Recovery().ReplayedInserts,
		"reopen_s": time.Since(t0).Seconds(),
	})
	return r, nil
}

// clusterCounters records the cluster layer's counters.
func (s *ingestStack) clusterCounters(b *bench, before, after []map[string]float64, lag *dist) {
	proxied, _ := delta(before[2:], after[2:], "proxied")
	wins, _ := delta(before[2:], after[2:], "hedge_wins")
	syncs, _ := delta(before[1:2], after[1:2], "snapshot_syncs")
	b.set("cluster.hedge_win_share", ratio(wins, proxied), "ratio")
	b.set("cluster.snapshot_syncs", syncs, "count")
	b.set("cluster.replica_lag_ms.p50", lag.at(0.5).Value, "ms")
}

// analyze turns the run's spans into the per-layer metrics of the insert
// and read paths, replaying the acknowledged inserts through the replica
// for the core and segment layers.
func (s *ingestStack) analyze(b *bench, batches int) {
	spans := b.tr.take()
	self := selfTimes(spans)
	byID := make(map[uint64]span, len(spans))
	for _, sp := range spans {
		byID[sp.id] = sp
	}
	var routerSelf, syncUS, snapMS dist
	var leaderInserts []span
	reads, readAttempts, followerAttempts, syncs, walBytes := 0, 0, 0, 0, int64(0)
	for _, sp := range spans {
		switch {
		case sp.layer == "cluster":
			routerSelf.add(float64(self[sp.id]) / 1e3)
			if sp.name == "query" {
				reads++
			}
		case sp.name == "attempt" && byID[sp.parent].name == "query":
			readAttempts++
			if sp.peer == "follower" {
				followerAttempts++
			}
		case sp.layer == "server" && sp.name == "insert":
			leaderInserts = append(leaderInserts, sp)
		case sp.layer == "persist" && sp.peer == "wal" && sp.name == "sync":
			syncUS.add(float64(sp.dur()) / 1e3)
			if sp.parent != 0 {
				syncs++
			}
		case sp.layer == "persist" && sp.peer == "wal" && sp.name == "write":
			walBytes += sp.bytes
		case sp.layer == "persist" && sp.name == "snapshot":
			snapMS.add(float64(sp.dur()) / 1e6)
		}
	}
	b.set("cluster.router_self_us.p50", routerSelf.at(0.5).Value, "us")
	b.set("cluster.attempts_per_read", ratio(float64(readAttempts), float64(reads)), "ratio")
	b.set("cluster.follower_read_share", ratio(float64(followerAttempts), float64(readAttempts)), "ratio")
	b.set("persist.sync_us.p50", syncUS.at(0.5).Value, "us")
	b.set("persist.sync_us.p99", syncUS.at(0.99).Value, "us")
	b.set("persist.snapshot_ms.p50", snapMS.median(), "ms")
	b.set("persist.syncs_per_insert", ratio(float64(syncs), float64(len(leaderInserts))), "ratio")
	b.set("persist.bytes_per_record", ratio(float64(walBytes), float64(len(leaderInserts)*insertBatch)), "B")
	b.note("persist_counts", map[string]int{"wal_syncs": len(syncUS.xs), "snapshots": len(snapMS.xs)})

	// Replay: the same batches, in order, through the replica. An Insert
	// after which the buffer shrank ran a merge-rebuild.
	sort.Slice(leaderInserts, func(i, j int) bool { return leaderInserts[i].start < leaderInserts[j].start })
	ins := s.rep.(polyfit.Inserter)
	var perRecord, rebuildMS, srvSelf dist
	for k := 0; k < batches; k++ {
		total := 0.0
		for _, key := range s.stream[k*insertBatch : min((k+1)*insertBatch, len(s.stream))] {
			buf := ins.BufferLen()
			ns := timeNS(func() { ins.Insert(key, 0) }) //nolint:errcheck // fresh keys: cannot fail
			if ins.BufferLen() <= buf {
				rebuildMS.add(ns / 1e6)
			}
			total += ns
		}
		perRecord.add(total / 1e3 / insertBatch)
		if k < len(leaderInserts) {
			sp := leaderInserts[k]
			srvSelf.add((float64(self[sp.id]) - total) / 1e3)
		}
	}
	b.set("core.insert_us_per_record.p50", perRecord.at(0.5).Value, "us")
	b.set("segment.rebuild_ms.p50", rebuildMS.median(), "ms")
	b.set("segment.rebuilds", float64(len(rebuildMS.xs)), "count")
	b.set("server.insert_self_us.p50", srvSelf.at(0.5).Value, "us")
	b.note("rebuild_ms", rebuildMS.xs)
	b.set("trace.overhead_us", traceOverheadUS(2), "us")
}
