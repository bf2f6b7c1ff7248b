// polyfit-serve runs the PolyFit query service: an HTTP JSON API over a
// registry of named range-aggregate indexes (see internal/server for the
// endpoint reference). Every index — static, dynamic, or sharded — is
// built through the unified polyfit.New builder and served behind the same
// polyfit.Index contract, so every query and batch response carries the
// certified absolute error bound in "bound". Static indexes are immutable
// and lock-free; dynamic indexes accept concurrent inserts while queries
// keep answering from lock-free snapshots.
//
// Usage:
//
//	polyfit-serve [-addr :8080] [-demo 200000] [-demo-shards K] [-data-dir DIR] [-snapshot-interval 15s]
//	              [-drain-timeout 10s] [-fault-schedule ""] [-fault-seed 1]
//	polyfit-serve -join http://leader:8080 [-addr :8081] [-advertise URL]     # read replica
//	polyfit-serve -route http://n1:8080,http://n2:8081 [-hedge-delay 2ms]     # router
//
// A point query takes the same path as a batch: decode, one admission slot
// (429 + Retry-After when the queue is full), execute under the request's
// deadline, encode (see internal/server).
//
// With -data-dir the server is durable: every index is snapshotted to DIR,
// acknowledged inserts are fsynced to a per-index write-ahead log before
// the response goes out, and on startup the registry is recovered from DIR
// — so a crash (SIGKILL included) loses nothing that was acknowledged. The
// background snapshotter folds the log into a fresh snapshot every
// -snapshot-interval.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight requests for up to -drain-timeout, then snapshots and closes —
// so a graceful stop never abandons acknowledged work mid-request.
//
// With -join the process is a read replica: it mirrors the leader's
// registry in memory (snapshot + WAL streaming, see internal/cluster),
// serves reads at a reported staleness, and answers writes with 409 plus
// an X-Polyfit-Leader redirect hint. -join is mutually exclusive with
// -data-dir — the leader owns the durable state.
//
// With -route the process is a router over a replica set: reads fan out
// over healthy replicas with hedged requests (a second attempt fires
// after -hedge-delay; first definitive answer wins, the loser is
// canceled), gated by each request's max_staleness_ms; writes forward to
// the leader. /v1/stats reports per-replica health and the hedge
// counters.
//
// -fault-schedule runs the data dir behind the fault-injection filesystem
// (internal/faultfs) for chaos testing: e.g. "write@20-70" fails writes 20
// through 69, "sync:0.1" fails 10% of fsyncs (seeded by -fault-seed).
// Failed WAL appends degrade the index to snapshot-only durability
// (inserts answer durable:false) instead of blocking; /v1/stats records
// the degradation. Never use it outside testing.
//
// With -demo N the server starts with two preloaded indexes built over N
// synthetic records each — "tweet" (dynamic COUNT over latitudes, εabs=100)
// and "hki" (dynamic MAX over a stock-like series, εabs=100) — so it can be
// queried immediately (indexes already recovered from -data-dir are kept,
// not rebuilt). With -demo-shards K > 1 the demo indexes are built sharded:
// K range partitions with scatter-gather queries, shard-local inserts, and
// (with -data-dir) one snapshot+WAL pair per shard:
//
//	curl -s localhost:8080/v1/indexes
//	curl -s -X POST localhost:8080/v1/indexes/tweet/query -d '{"lo":30,"hi":50}'
//	curl -s -X POST localhost:8080/v1/indexes/tweet/batch \
//	    -d '{"ranges":[{"lo":0,"hi":10},{"lo":-20,"hi":20}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/faultfs"
	"repro/internal/persist"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.Int("demo", 0, "preload demo indexes over this many synthetic records (0 = none)")
	demoShards := flag.Int("demo-shards", 0, "build the demo indexes with this many range-partitioned shards (≤1 = unsharded)")
	dataDir := flag.String("data-dir", "", "directory for snapshots and insert WALs (empty = in-memory only)")
	snapInterval := flag.Duration("snapshot-interval", 15*time.Second, "background snapshot period (requires -data-dir; <0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for draining in-flight requests")
	faultSchedule := flag.String("fault-schedule", "", "faultfs injection schedule for the data dir, e.g. write@20-70 or sync:0.1 (testing only)")
	faultSeed := flag.Int64("fault-seed", 1, "PRNG seed for probabilistic -fault-schedule rules")
	join := flag.String("join", "", "leader base URL to replicate from (follower mode, in-memory; mutually exclusive with -data-dir)")
	advertise := flag.String("advertise", "", "URL this node reports to peers (default derived from -addr)")
	route := flag.String("route", "", "comma-separated replica base URLs: run as a hedged scatter-gather router instead of a server")
	hedgeDelay := flag.Duration("hedge-delay", 2*time.Millisecond, "router: delay before hedging a read to the next-fastest replica (<0 disables)")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "router: replica health-probe period")
	maxStaleness := flag.Duration("max-staleness", 0, "router: default read staleness gate when a request has no max_staleness_ms (0 = none)")
	flag.Parse()

	if *advertise == "" {
		*advertise = deriveAdvertise(*addr)
	}
	if *route != "" {
		runRouter(*addr, *route, *hedgeDelay, *probeInterval, *maxStaleness, *drainTimeout)
		return
	}

	var fsys persist.FS
	if *faultSchedule != "" {
		var err error
		if fsys, err = faultfs.New(persist.OSFS(), *faultSchedule, *faultSeed); err != nil {
			log.Fatalf("fault schedule: %v", err)
		}
		log.Printf("FAULT INJECTION ACTIVE: schedule %q seed %d", *faultSchedule, *faultSeed)
	}
	srv, err := server.NewDurable(server.Config{
		DataDir:          *dataDir,
		SnapshotInterval: *snapInterval,
		Logf:             log.Printf,
		FS:               fsys,
		Join:             *join,
		Advertise:        *advertise,
	})
	if err != nil {
		log.Fatalf("open data dir %q: %v", *dataDir, err)
	}
	if *dataDir != "" {
		// The recovery log line: what came back, what was replayed, what was
		// skipped as corrupt, and how long boot-time recovery took.
		log.Printf("durable mode: data dir %s; %s", *dataDir, srv.Recovery())
	}
	if *join != "" {
		log.Printf("follower mode: replicating from %s as %s", *join, *advertise)
	}
	if *demo > 0 {
		if err := preload(srv, *demo, *demoShards); err != nil {
			log.Fatalf("preload demo indexes: %v", err)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	go func() {
		log.Printf("polyfit-serve listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}()

	<-ctx.Done()
	log.Print("shutting down")
	// Ordered teardown: (1) stop accepting new connections and let the
	// in-flight ones finish (http.Server.Shutdown), (2) drain the handler
	// layer under the same deadline — new requests get 503 + Retry-After
	// while started ones complete, (3) only then the final snapshot and
	// WAL teardown, so Close never races a request that could still
	// acknowledge work.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := srv.Drain(shutdownCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	// Final snapshot + WAL handle release; recovery after a graceful stop
	// then replays nothing.
	if err := srv.Close(); err != nil {
		log.Printf("close: %v", err)
	}
}

// preload registers the demo indexes over synthetic datasets. Indexes that
// already exist (recovered from -data-dir) are kept as-is. shards > 1
// builds them range-partitioned.
func preload(srv *server.Server, n, shards int) error {
	tweet := server.CreateRequest{
		Name: "tweet", Agg: "count", Dynamic: true,
		Keys: data.GenTweet(n, 1), EpsAbs: 100, Shards: shards,
	}
	keys, vals := data.GenHKI(n, 2)
	hki := server.CreateRequest{
		Name: "hki", Agg: "max", Dynamic: true,
		Keys: keys, Measures: vals, EpsAbs: 100, Shards: shards,
	}
	for _, req := range []server.CreateRequest{tweet, hki} {
		if _, err := srv.Create(req); err != nil {
			if errors.Is(err, server.ErrExists) {
				log.Printf("demo index %q already present (recovered); keeping it", req.Name)
				continue
			}
			return err
		}
		if shards > 1 {
			log.Printf("preloaded demo index %q over %d records in %d shards", req.Name, n, shards)
		} else {
			log.Printf("preloaded demo index %q over %d records", req.Name, n)
		}
	}
	return nil
}

// deriveAdvertise turns a listen address into a URL peers can reach: a
// bare ":8080" becomes "http://127.0.0.1:8080" (single-host clusters —
// multi-host deployments must pass -advertise explicitly).
func deriveAdvertise(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// runRouter serves the hedged scatter-gather router until SIGINT/SIGTERM.
func runRouter(addr, route string, hedgeDelay, probeInterval, maxStaleness, drainTimeout time.Duration) {
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:      strings.Split(route, ","),
		HedgeDelay:    hedgeDelay,
		ProbeInterval: probeInterval,
		MaxStaleness:  maxStaleness,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	httpSrv := &http.Server{Addr: addr, Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		log.Printf("polyfit-serve routing %s on %s", route, addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}()
	<-ctx.Done()
	log.Print("router shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	rt.Close()
}
