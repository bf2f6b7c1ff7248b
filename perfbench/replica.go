package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	polyfit "repro"
	"repro/internal/server"
)

// The index inside a server cannot be wrapped, so traced runs build the
// identical index themselves: polyfit.New with the spec and the options a
// create request lowers to. The build is the segment layer's span, and the
// replica must marshal to the same bytes as the served index, or its
// replayed timings would describe a different index.

// replica builds req's index, adds the build time to b's segment.build_s,
// and checks it against GET /v1/indexes/{name}/marshal.
func replica(b *bench, c *client, req server.CreateRequest) (polyfit.Index, error) {
	aggs := map[string]polyfit.Agg{"count": polyfit.Count, "sum": polyfit.Sum, "min": polyfit.Min, "max": polyfit.Max}
	opts := []polyfit.Option{
		polyfit.WithMaxError(req.EpsAbs),
		polyfit.WithDelta(req.Delta),
		polyfit.WithDegree(req.Degree),
		polyfit.WithFallback(!req.DisableFallback),
		polyfit.WithParallelism(runtime.GOMAXPROCS(0)),
	}
	if req.Dynamic {
		opts = append(opts, polyfit.WithDynamic())
	}
	if req.Shards > 1 {
		opts = append(opts, polyfit.WithShards(req.Shards))
	}
	t0 := time.Now()
	ix, err := polyfit.New(polyfit.Spec{Agg: aggs[req.Agg], Keys: req.Keys, Measures: req.Measures}, opts...)
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", req.Name, err)
	}
	b.addMetric("segment.build_s", time.Since(t0).Seconds(), "s")
	mine, err := ix.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("replica %s: %w", req.Name, err)
	}
	var served []byte
	if !b.tally.result(c.get("/v1/indexes/"+req.Name+"/marshal", &served)) {
		return ix, nil
	}
	if !bytes.Equal(mine, served) {
		b.tally.fail("replica_mismatch", 1)
	}
	return ix, nil
}

// addMetric accumulates into a metric.
func (b *bench) addMetric(name string, v float64, unit string) {
	b.set(name, b.metrics[name].Value+v, unit)
}

// timeNS runs f and returns its duration in nanoseconds.
func timeNS(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds())
}

// spaceMetrics records index_bytes_per_key and the core layer's structure
// counts from GET /v1/indexes.
func spaceMetrics(b *bench, c *client) error {
	ixs, err := listIndexes(c)
	if err != nil {
		return fmt.Errorf("list indexes: %w", err)
	}
	var bytes, keys, segs, fb float64
	for _, s := range ixs {
		bytes += float64(s.IndexBytes)
		keys += float64(s.Records)
		segs += float64(s.Segments)
		fb += float64(s.FallbackBytes)
	}
	b.set("index_bytes_per_key", ratio(bytes, keys), "B/key")
	b.set("core.segments", segs, "count")
	b.set("core.fallback_bytes", fb, "B")
	b.note("indexes", ixs)
	return nil
}

// serverCounters computes the server layer's counter ratios from /v1/stats
// deltas over a run. ops is the number of client operations offered.
func serverCounters(b *bench, before, after []map[string]float64, ops float64) {
	var absent []string
	put := func(name, field string, den float64) {
		v, ok := delta(before, after, field)
		if !ok {
			absent = append(absent, field)
		}
		b.set(name, ratio(v, den), "ratio")
	}
	put("server.executed_per_query", "executed_queries", ops)
	put("server.shed_share", "shed_queries", ops)
	put("server.coalesced_share", "coalesced_queries", ops)
	put("server.batched_share", "batched_queries", ops)
	hits, okH := delta(before, after, "cache_hits")
	misses, okM := delta(before, after, "cache_misses")
	if !okH || !okM {
		absent = append(absent, "cache_hits/cache_misses")
	}
	b.set("server.cache_hit_rate", ratio(hits, hits+misses), "ratio")
	b.note("absent_counters", absent)
}

// accuracy accumulates the paper's accuracy measures over checked answers.
type accuracy struct {
	errSum, bndSum float64
	n              int
}

func (a *accuracy) errMean() float64   { return ratio(a.errSum, float64(a.n)) }
func (a *accuracy) boundMean() float64 { return ratio(a.bndSum, float64(a.n)) }

func (a *accuracy) merge(o accuracy) {
	a.errSum += o.errSum
	a.bndSum += o.bndSum
	a.n += o.n
}

// add checks one answer against exact; an answer outside exact ± its bound
// is a failed operation and stays out of the means.
func (a *accuracy) add(b *bench, got answer, exact float64) bool {
	if !got.Found || !within(got.Value, exact, exact, got.Bound) {
		b.tally.fail("bound_violation", 1)
		return false
	}
	a.errSum += relErr(got.Value, exact)
	a.bndSum += got.Bound / math.Max(math.Abs(exact), 1)
	a.n++
	return true
}

// sweep answers every range through the batch endpoint, batchRanges per
// request, and checks each answer. Sweeping a whole pool keeps the means
// from depending on which ranges a run happened to draw.
func (a *accuracy) sweep(b *bench, c *client, name string, ranges [][2]float64, exact []float64) {
	for lo := 0; lo < len(ranges); lo += batchRanges {
		hi := min(lo+batchRanges, len(ranges))
		var resp struct{ Results []answer }
		err := c.do(context.Background(), http.MethodPost, "/v1/indexes/"+name+"/batch", batchBody(ranges[lo:hi]), &resp)
		if !b.tally.result(err) {
			continue
		}
		if len(resp.Results) != hi-lo {
			b.tally.fail("bound_violation", 1)
			continue
		}
		for i, got := range resp.Results {
			a.add(b, got, exact[lo+i])
		}
	}
}
