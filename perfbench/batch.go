package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	polyfit "repro"
	"repro/internal/data"
	"repro/internal/server"
)

// The batch_scan workload: a closed loop on one connection of 4096-range
// batch requests, alternating between a 4-shard static COUNT index over 1M
// GenTweet keys and the static MAX index over 1M GenHKI ticks. Every batch
// holds fresh uniform ranges (two random keys each), so the result cache,
// coalescing and the queued-query batcher have nothing to act on.

const (
	batchRanges = 4096
	batchShards = 4
	batchConns  = 1
	// batchReplays caps how many traced batches are replayed through the
	// replica, evenly spaced over the run.
	batchReplays = 600
)

type batchStack struct {
	nd      *node
	clients []*client
	reqs    []server.CreateRequest
	cr      countRef
	mr      *maxRef
	reps    [2]polyfit.Index

	mu  sync.Mutex
	acc accuracy
}

func (s *batchStack) close() {
	for _, c := range s.clients {
		c.closeIdle()
	}
	s.nd.close()
}

func setupBatch(b *bench) (*batchStack, error) {
	s := &batchStack{}
	tweet := data.GenTweet(pointKeys, tweetSeed)
	hk, hv := data.GenHKI(pointKeys, hkiSeed)
	s.reqs = []server.CreateRequest{
		{Name: "tweet4", Agg: "count", Keys: tweet, EpsAbs: epsAbs, Shards: batchShards},
		{Name: "hki", Agg: "max", Keys: hk, Measures: hv, EpsAbs: epsAbs},
	}
	s.cr, s.mr = countRef{tweet}, newMaxRef(hk, hv)
	b.markHeap()
	srv, err := server.NewDurable(server.Config{})
	if err != nil {
		return nil, err
	}
	if s.nd, err = listen(); err != nil {
		return nil, err
	}
	s.nd.start(traced(srv, b.tr, "server", nil))
	for _, r := range s.reqs {
		if _, err := srv.Create(owned(r)); err != nil {
			s.close()
			return nil, fmt.Errorf("create %s: %w", r.Name, err)
		}
	}
	for i := 0; i < batchConns; i++ {
		s.clients = append(s.clients, newClient(s.nd.url, b.tr))
	}
	if b.tr != nil {
		for i, r := range s.reqs {
			if s.reps[i], err = replica(b, s.clients[0], r); err != nil {
				s.close()
				return nil, err
			}
		}
	}
	for i := 0; i < 8; i++ { // warm-up
		s.send(b, s.prepare(b.seed, 1, -1-i), false) //nolint:errcheck // tallied inside
	}
	return s, nil
}

// rangesFor regenerates worker w's seq-th batch, so traced batches can be
// replayed without keeping their ranges.
func (s *batchStack) rangesFor(seed int64, w, seq int) (ix int, rs [][2]float64) {
	ix = (w + seq) & 1
	rng := rand.New(rand.NewSource(seed*7919 + int64(w+1)*1_000_003 + int64(seq)))
	return ix, paperRanges(rng, s.reqs[ix].Keys, batchRanges)
}

// prepared is one batch request ready to send, with its exact answers.
type prepared struct {
	w, seq, ix int
	exact      []float64
	body       []byte
}

// prepare builds worker w's seq-th batch and its exact answers.
func (s *batchStack) prepare(seed int64, w, seq int) prepared {
	ix, rs := s.rangesFor(seed, w, seq)
	p := prepared{w: w, seq: seq, ix: ix, exact: make([]float64, len(rs)), body: batchBody(rs)}
	for i, r := range rs {
		if ix == 0 {
			p.exact[i] = s.cr.count(r[0], r[1])
		} else {
			p.exact[i], _ = s.mr.max(r[0], r[1])
		}
	}
	return p
}

// send posts a prepared batch, checks every answer, and returns the
// request's latency.
func (s *batchStack) send(b *bench, p prepared, account bool) (time.Duration, error) {
	ctx := context.Background()
	if b.tr.enabled() {
		ctx = withTag(ctx, int64(p.w)<<32|int64(p.seq))
	}
	var resp struct{ Results []answer }
	t0 := time.Now()
	err := s.clients[0].do(ctx, http.MethodPost, "/v1/indexes/"+s.reqs[p.ix].Name+"/batch", p.body, &resp)
	lat := time.Since(t0)
	if !b.tally.result(err) {
		return lat, err
	}
	if len(resp.Results) != len(p.exact) {
		b.tally.fail("bound_violation", 1)
		return lat, errViolation
	}
	var acc accuracy
	for i, a := range resp.Results {
		if !acc.add(b, a, p.exact[i]) {
			return lat, errViolation
		}
	}
	if account {
		s.mu.Lock()
		s.acc.merge(acc)
		s.mu.Unlock()
	}
	return lat, nil
}

// errStopped marks a loop iteration that found the run already over.
var errStopped = errors.New("run over")

func runBatchScan(b *bench) error {
	s, err := repeatSetup(b, func() (*batchStack, error) { return setupBatch(b) }, (*batchStack).close)
	if err != nil {
		return err
	}
	defer s.close()
	admin := newClient(s.nd.url, nil)
	defer admin.closeIdle()
	b.note("config", map[string]any{
		"keys": pointKeys, "eps_abs": epsAbs, "count_shards": batchShards, "ranges_per_request": batchRanges,
		"conns": batchConns, "loop": "closed", "indexes": "alternating tweet4 (count) and hki (max)", "seed": b.seed,
	})
	if b.tr != nil {
		b.tr.take() // drop set-up spans
	}
	before := []map[string]float64{counters(admin)}
	ctx, cancel := context.WithTimeout(context.Background(), b.runFor())
	defer cancel()
	// The next batch is prepared while the current one is in flight, so
	// the server sees requests back to back.
	next := make(chan prepared, 1)
	prepDone := make(chan struct{})
	go func() {
		defer close(prepDone)
		defer close(next)
		for seq := 0; ; seq++ {
			select {
			case next <- s.prepare(b.seed, 0, seq):
			case <-ctx.Done():
				return
			}
		}
	}()
	t0 := time.Now()
	perWorker := closedLoop(ctx, batchConns, func(int, int) (time.Duration, error) {
		p, ok := <-next
		if !ok {
			return 0, errStopped
		}
		return s.send(b, p, true)
	})
	elapsed := time.Since(t0).Seconds()
	<-prepDone
	if b.tr != nil {
		b.tr.paused.Store(true)
	}
	after := []map[string]float64{counters(admin)}
	var lat dist
	var byIndex [2]dist
	n := 0
	for w, ws := range perWorker {
		for seq, x := range ws {
			if errors.Is(x.err, errStopped) {
				continue
			}
			l := float64(x.lat) / 1e3
			if x.err != nil {
				l = math.Inf(1)
			}
			lat.add(l)
			byIndex[(w+seq)&1].add(l)
			n++
		}
	}
	b.note("read_us_by_index", map[string]any{
		s.reqs[0].Name: []pctl{byIndex[0].at(0.5), byIndex[0].at(0.99)},
		s.reqs[1].Name: []pctl{byIndex[1].at(0.5), byIndex[1].at(0.99)},
	})
	p50, p99 := lat.at(0.5), lat.at(0.99)
	b.set("read_p50_us", finite(p50.Value), "us")
	b.set("read_p99_us", finite(p99.Value), "us")
	b.note("read_p99", p99)
	s.mu.Lock()
	b.set("work_per_s", float64(s.acc.n)/elapsed, "1/s")
	b.set("rel_err_mean", s.acc.errMean(), "ratio")
	b.set("bound_rel_mean", s.acc.boundMean(), "ratio")
	s.mu.Unlock()
	if err := spaceMetrics(b, admin); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	serverCounters(b, before, after, float64(n))
	s.analyze(b)
	return nil
}

// analyze replays traced batches through the replicas; the replayed
// QueryBatch is the server span's one child.
func (s *batchStack) analyze(b *bench) {
	spans := b.tr.take()
	self := selfTimes(spans)
	serverOf := make(map[uint64]span)
	var roots []span
	for _, sp := range spans {
		switch {
		case sp.layer == "server":
			serverOf[sp.parent] = sp
		case sp.layer == "http" && sp.parent == 0 && sp.name == "batch":
			roots = append(roots, sp)
		}
	}
	step := max(1, len(roots)/batchReplays)
	var httpSelf, srvSelf, coreUS, touched, root dist
	for k := 0; k < len(roots); k += step {
		rt := roots[k]
		sv, ok := serverOf[rt.id]
		if !ok {
			continue
		}
		w, seq := int(rt.tag>>32), int(rt.tag&(1<<32-1))
		ix, rs := s.rangesFor(b.seed, w, seq)
		qs := make([]polyfit.Range, len(rs))
		for i, r := range rs {
			qs[i] = polyfit.Range{Lo: r[0], Hi: r[1]}
		}
		ns := timeNS(func() { s.reps[ix].QueryBatch(qs) }) //nolint:errcheck // timing only
		coreUS.add(ns / 1e3)
		root.add(float64(rt.dur()) / 1e6)
		httpSelf.add(float64(self[rt.id]) / 1e6)
		srvSelf.add((float64(sv.dur()) - ns) / 1e6)
		if sh, ok := s.reps[ix].(polyfit.Sharder); ok {
			for _, q := range qs {
				touched.add(float64(sh.ShardOf(q.Hi) - sh.ShardOf(q.Lo) + 1))
			}
		}
	}
	b.set("http.batch_self_ms.p50", httpSelf.at(0.5).Value, "ms")
	b.set("server.batch_self_ms.p50", srvSelf.at(0.5).Value, "ms")
	b.set("core.batch_us.p50", coreUS.at(0.5).Value, "us")
	b.set("core.shards_touched_mean", touched.mean(), "count")
	b.set("trace.attributed_share", ratio(httpSelf.mean()+srvSelf.mean()+coreUS.mean()/1e3, root.mean()), "ratio")
	b.note("traced_batches", map[string]int{"spans": len(roots), "replayed": len(coreUS.xs)})
	b.set("trace.overhead_us", traceOverheadUS(1), "us")
}
