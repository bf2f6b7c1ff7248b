package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	polyfit "repro"
	"repro/internal/data"
	"repro/internal/server"
)

// The point workload: single-range queries, closed loop on two
// connections, over a static COUNT index of 1M GenTweet keys and a static
// MAX index of 1M GenHKI ticks. Ranges come from a 64Ki pool per
// index built by the paper's rule (two random keys) and are drawn with
// Zipf skew; the mix is 60% COUNT εabs, 20% COUNT εrel and 20% MAX εabs.

// The datasets are fixed, as the paper's real ones are; --seed drives the
// traffic drawn over them: ranges, arrivals, and the ingest base/stream
// split.
const (
	tweetSeed = 1
	hkiSeed   = 2
)

const (
	pointKeys = 1_000_000
	epsAbs    = 100.0
	epsRel    = 0.01
	poolSize  = 1 << 16
	zipfS     = 1.1
	conns     = 2
	// traceEvery samples the reads a traced run records: every read would
	// hold about a million spans in memory.
	traceEvery = 8
)

// Query modes of the point mix, and the shares of the first two; the rest
// are MAX.
const (
	modeCount = iota
	modeCountRel
	modeMax

	shareCount    = 0.6
	shareCountRel = 0.2
)

type job struct {
	mode uint8
	idx  int32
}

type pointStack struct {
	nd      *node
	clients []*client
	reqs    []server.CreateRequest
	pools   [2][][2]float64 // ranges: 0 tweet, 1 hki
	exact   [2][]float64
	reps    [2]polyfit.Index // traced runs: the replicas

	offered atomic.Int64 // reads sent by the measured run
}

func (p *pointStack) close() {
	for _, c := range p.clients {
		c.closeIdle()
	}
	p.nd.close()
}

// paperRanges draws n ranges by the paper's rule, two random keys: the
// span |i-j| of two distinct uniform picks has the triangular distribution
// P(L=l) ∝ N-l, and the lower key is uniform among those that leave room
// for it. The spans are taken at the midpoints of n equal quantile strata,
// in shuffled order, so every set of n ranges has the same spans: the mean
// of bound/exact, which the smallest spans dominate, then does not swing
// with the few smallest spans a seed happens to draw.
func paperRanges(rng *rand.Rand, keys []float64, n int) [][2]float64 {
	nk := float64(len(keys))
	spans := make([]int, n)
	for k := range spans {
		u := (float64(k) + 0.5) / float64(n)
		spans[k] = min(len(keys)-1, max(1, int(nk*(1-math.Sqrt(1-u)))))
	}
	rng.Shuffle(n, func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	out := make([][2]float64, n)
	for i, l := range spans {
		lo := rng.Intn(len(keys) - l)
		out[i] = [2]float64{keys[lo], keys[lo+l]}
	}
	return out
}

func setupPoint(b *bench) (*pointStack, error) {
	p := &pointStack{}
	tweet := data.GenTweet(pointKeys, tweetSeed)
	hk, hv := data.GenHKI(pointKeys, hkiSeed)
	p.reqs = []server.CreateRequest{
		{Name: "tweet", Agg: "count", Keys: tweet, EpsAbs: epsAbs},
		{Name: "hki", Agg: "max", Keys: hk, Measures: hv, EpsAbs: epsAbs},
	}
	rng := rand.New(rand.NewSource(b.seed + 7))
	cr, mr := countRef{tweet}, newMaxRef(hk, hv)
	p.pools[0] = paperRanges(rng, tweet, poolSize)
	p.pools[1] = paperRanges(rng, hk, poolSize)
	for _, r := range p.pools[0] {
		p.exact[0] = append(p.exact[0], cr.count(r[0], r[1]))
	}
	for _, r := range p.pools[1] {
		v, _ := mr.max(r[0], r[1])
		p.exact[1] = append(p.exact[1], v)
	}
	b.markHeap()
	srv, err := server.NewDurable(server.Config{})
	if err != nil {
		return nil, err
	}
	if p.nd, err = listen(); err != nil {
		return nil, err
	}
	p.nd.start(traced(srv, b.tr, "server", nil))
	for _, r := range p.reqs {
		if _, err := srv.Create(owned(r)); err != nil {
			p.close()
			return nil, fmt.Errorf("create %s: %w", r.Name, err)
		}
	}
	for i := 0; i < conns; i++ {
		p.clients = append(p.clients, newClient(p.nd.url, b.tr))
	}
	if b.tr != nil {
		for i, r := range p.reqs {
			if p.reps[i], err = replica(b, p.clients[0], r); err != nil {
				p.close()
				return nil, err
			}
		}
	}
	// Warm-up: connections open, code paths and allocator warm.
	for i := 0; i < 2000; i++ {
		j := job{mode: uint8(i % 3), idx: int32(rng.Intn(poolSize))}
		p.query(b, context.Background(), p.clients[i%conns], j, false) //nolint:errcheck // tallied inside
	}
	return p, nil
}

func (p *pointStack) pool(mode uint8) int {
	if mode == modeMax {
		return 1
	}
	return 0
}

// errViolation marks an answer outside exact ± its bound.
var errViolation = fmt.Errorf("answer outside exact ± bound")

// query sends one job and checks the answer; measured marks the reads of
// the measured run.
func (p *pointStack) query(b *bench, ctx context.Context, c *client, j job, measured bool) error {
	pl := p.pool(j.mode)
	r := p.pools[pl][j.idx]
	rel := 0.0
	if j.mode == modeCountRel {
		rel = epsRel
	}
	if measured {
		p.offered.Add(1)
	}
	var a answer
	err := c.do(ctx, http.MethodPost, "/v1/indexes/"+p.reqs[pl].Name+"/query", queryBody(r[0], r[1], rel), &a)
	if !b.tally.result(err) {
		return err
	}
	exact := p.exact[pl][j.idx]
	if !a.Found || !within(a.Value, exact, exact, a.Bound) {
		b.tally.fail("bound_violation", 1)
		return errViolation
	}
	return nil
}

// drawJobs draws n jobs of the mix with Zipf-skewed pool ranks.
func drawJobs(rng *rand.Rand, n int) []job {
	z := rand.NewZipf(rng, zipfS, 1, poolSize-1)
	out := make([]job, n)
	for i := range out {
		m := uint8(modeCount)
		switch u := rng.Float64(); {
		case u >= shareCount+shareCountRel:
			m = modeMax
		case u >= shareCount:
			m = modeCountRel
		}
		out[i] = job{mode: m, idx: int32(z.Uint64())}
	}
	return out
}

func runPoint(b *bench) error {
	p, err := repeatSetup(b, func() (*pointStack, error) { return setupPoint(b) }, (*pointStack).close)
	if err != nil {
		return err
	}
	defer p.close()
	admin := newClient(p.nd.url, nil)
	defer admin.closeIdle()
	b.note("config", map[string]any{
		"keys": pointKeys, "eps_abs": epsAbs, "eps_rel": epsRel, "pool": poolSize, "zipf_s": zipfS,
		"mix": "60% count eps_abs, 20% count eps_rel, 20% max eps_abs", "conns": conns,
		"loop": "closed", "seed": b.seed,
	})
	if b.tr != nil {
		b.tr.take() // drop set-up spans
	}
	before := []map[string]float64{counters(admin)}
	jobs := drawJobs(rand.New(rand.NewSource(b.seed+11)), 1<<18)
	var next atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), b.runFor())
	defer cancel()
	t0 := time.Now()
	perWorker := closedLoop(ctx, conns, func(w, _ int) (time.Duration, error) {
		i := next.Add(1) - 1
		rctx := context.Background()
		if b.tr.enabled() && i%traceEvery == 0 {
			rctx = withTag(rctx, i)
		}
		start := time.Now()
		err := p.query(b, rctx, p.clients[w], jobs[int(i)%len(jobs)], true)
		return time.Since(start), err
	})
	elapsed := time.Since(t0).Seconds()
	if b.tr != nil {
		b.tr.paused.Store(true)
	}
	after := []map[string]float64{counters(admin)}
	var lat dist
	ok := 0
	for _, ws := range perWorker {
		for _, x := range ws {
			l := float64(x.lat) / 1e3
			if x.err != nil {
				l = math.Inf(1)
			} else {
				ok++
			}
			lat.add(l)
		}
	}
	b.set("read_p50_us", lat.at(0.5).Value, "us")
	b.set("read_p99_us", lat.at(0.99).Value, "us")
	b.set("work_per_s", float64(ok)/elapsed, "1/s")
	b.note("read_p99", lat.at(0.99))
	p.accuracyMetrics(b, admin)
	if err := spaceMetrics(b, admin); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	serverCounters(b, before, after, float64(p.offered.Load()))
	p.analyze(b, jobs)
	return nil
}

// accuracyMetrics records rel_err_mean and bound_rel_mean over every pool
// range in each mode of the mix, weighted by the mix: the εabs modes
// through the batch endpoint, whose answers equal single-range ones, and
// the εrel mode through single-range /query, since a batch cannot carry
// eps_rel. Sweeping whole pools keeps the means from depending on which
// ranges the Zipf draw favoured.
func (p *pointStack) accuracyMetrics(b *bench, admin *client) {
	var cnt, mx accuracy
	cnt.sweep(b, admin, p.reqs[0].Name, p.pools[0], p.exact[0])
	mx.sweep(b, admin, p.reqs[1].Name, p.pools[1], p.exact[1])
	rel := p.relSweep(b)
	shareMax := 1 - shareCount - shareCountRel
	b.set("rel_err_mean", shareCount*cnt.errMean()+shareCountRel*rel.errMean()+shareMax*mx.errMean(), "ratio")
	b.set("bound_rel_mean", shareCount*cnt.boundMean()+shareCountRel*rel.boundMean()+shareMax*mx.boundMean(), "ratio")
	b.note("accuracy_by_mode", map[string][2]float64{
		"count": {cnt.errMean(), cnt.boundMean()}, "count_rel": {rel.errMean(), rel.boundMean()},
		"max": {mx.errMean(), mx.boundMean()},
	})
}

// relSweep asks every COUNT pool range at εrel through single-range
// /query, on every connection, and checks each answer.
func (p *pointStack) relSweep(b *bench) accuracy {
	var total accuracy
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acc accuracy
			for i := int(next.Add(1) - 1); i < poolSize; i = int(next.Add(1) - 1) {
				r := p.pools[0][i]
				var a answer
				err := c.do(context.Background(), http.MethodPost, "/v1/indexes/"+p.reqs[0].Name+"/query", queryBody(r[0], r[1], epsRel), &a)
				if b.tally.result(err) {
					acc.add(b, a, p.exact[0][i])
				}
			}
			mu.Lock()
			total.merge(acc)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// analyze turns the reads' spans into per-layer metrics. The core time of
// a read is its replay through the replica, taken as the server span's one
// child.
func (p *pointStack) analyze(b *bench, jobs []job) {
	spans := b.tr.take()
	self := selfTimes(spans)
	serverOf := make(map[uint64]span)
	for _, s := range spans {
		if s.layer == "server" {
			serverOf[s.parent] = s
		}
	}
	var httpSelf, srvDur, srvSelf, coreNS, relNS, root dist
	coreSum, fallback, rels := 0.0, 0, 0
	for _, s := range spans {
		if s.layer != "http" || s.parent != 0 || s.name != "query" {
			continue
		}
		sv, ok := serverOf[s.id]
		if !ok {
			continue
		}
		j := jobs[int(s.tag)%len(jobs)]
		pl := p.pool(j.mode)
		r := polyfit.Range{Lo: p.pools[pl][j.idx][0], Hi: p.pools[pl][j.idx][1]}
		var ns float64
		if j.mode == modeCountRel {
			var res polyfit.Result
			ns = timeNS(func() { res, _ = p.reps[pl].QueryRel(r, epsRel) })
			relNS.add(ns)
			rels++
			if res.Exact {
				fallback++
			}
		} else {
			ns = timeNS(func() { p.reps[pl].Query(r) }) //nolint:errcheck // timing only
			coreNS.add(ns)
		}
		coreSum += ns / 1e3
		root.add(float64(s.dur()) / 1e3)
		httpSelf.add(float64(self[s.id]) / 1e3)
		srvDur.add(float64(sv.dur()) / 1e3)
		srvSelf.add((float64(sv.dur()) - ns) / 1e3)
	}
	b.set("http.query_self_us.p50", httpSelf.at(0.5).Value, "us")
	b.set("server.query_us.p50", srvDur.at(0.5).Value, "us")
	b.set("server.query_us.p99", srvDur.at(0.99).Value, "us")
	b.set("server.query_self_us.p50", srvSelf.at(0.5).Value, "us")
	b.set("core.query_ns.p50", coreNS.at(0.5).Value, "ns")
	b.set("core.query_rel_ns.p99", relNS.at(0.99).Value, "ns")
	b.set("core.exact_fallback_share", ratio(float64(fallback), float64(rels)), "ratio")
	coreMean := ratio(coreSum, float64(len(root.xs)))
	b.set("trace.attributed_share", ratio(httpSelf.mean()+srvSelf.mean()+coreMean, root.mean()), "ratio")
	b.note("traced_mean_us", map[string]float64{
		"reads": float64(len(root.xs)), "root": root.mean(), "http_self": httpSelf.mean(),
		"server_self": srvSelf.mean(), "core": coreMean,
	})
	b.set("trace.overhead_us", traceOverheadUS(1), "us")
}
