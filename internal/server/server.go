// Package server exposes a registry of PolyFit indexes over an HTTP JSON
// API — the query-serving layer in front of the core index structures,
// in the spirit of overlay aggregate-range services: clients build named
// indexes (all four aggregates, static or dynamic), stream inserts into
// dynamic ones, and answer single or batched range aggregate queries.
//
// The server is safe for heavy concurrent traffic: the registry is guarded
// by an RWMutex, static indexes are immutable, and dynamic indexes are
// internally synchronised (queries are lock-free snapshot reads that never
// block behind inserts or merge-rebuilds).
//
// Servers built with NewDurable and a data dir survive restarts: indexes
// are snapshotted to disk, acknowledged inserts are fsynced to a
// write-ahead log before the response goes out, and the registry is
// recovered on boot (see durability.go for the full contract).
//
// The server is also overload- and fault-safe. A point query takes the
// same path as a batch: decode → admit → execute → encode. Every query
// runs under a deadline (per-request timeout_ms or the server default) and
// reports 504 when it expires (499 when the client hung up instead); a
// bounded admission queue sheds excess queries with 429 + Retry-After
// instead of queueing unboundedly (see admission.go); request bodies are
// capped per route (413); handler panics are recovered to a 500; and
// Drain stops new work while in-flight requests finish. When the disk
// goes bad, inserts degrade to acknowledged-but-not-durable (200 with
// durable:false) rather than blocking or failing — the forced-snapshot
// path persists them as soon as the disk heals (see durability.go).
//
// # Endpoints
//
//	GET    /healthz                       liveness probe
//	GET    /v1/stats                      global durability counters
//	POST   /v1/indexes                    build an index (data or blob)
//	GET    /v1/indexes                    list all indexes with stats
//	GET    /v1/indexes/{name}             stats for one index
//	DELETE /v1/indexes/{name}             drop an index
//	POST   /v1/indexes/{name}/query       one range: {lo, hi, eps_rel?}
//	POST   /v1/indexes/{name}/batch       many ranges in one request
//	POST   /v1/indexes/{name}/insert      append records (dynamic only)
//	POST   /v1/indexes/{name}/rebuild     force a merge-rebuild (dynamic only)
//	GET    /v1/indexes/{name}/marshal     serialised index (octet-stream)
//	POST   /v1/indexes/{name}/restore     load a marshalled blob under name
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	polyfit "repro"
	"repro/internal/persist"
)

// Per-route request body caps. Create and restore carry whole datasets or
// index blobs (datasets of a few million float keys fit comfortably;
// anything larger should be loaded server-side); insert batches are
// bounded streams; query and batch bodies are small JSON. A body over its
// route's cap is answered with a structured 413.
const (
	maxBodyBytes   = 512 << 20 // create, restore, and default
	maxInsertBytes = 64 << 20
	maxBatchBytes  = 32 << 20
	maxQueryBytes  = 1 << 20
)

type entry struct {
	// ix is the uniform query surface: every variant — static, dynamic,
	// sharded, sharded dynamic — serves the same polyfit.Index contract, so
	// the handlers never switch on concrete types.
	ix polyfit.Index
	// cq is ix's deadline-aware query surface, which every index
	// polyfit.New, Open and Assemble return implements. ins is ix's
	// Inserter capability (nil for static indexes); shd its
	// ShardSnapshotter capability (nil unless sharded dynamic), the unit of
	// per-shard durability.
	cq  polyfit.ContextQuerier
	ins polyfit.Inserter
	shd polyfit.ShardSnapshotter

	// Durable state (nil/zero for in-memory servers and static indexes).
	// Plain dynamic indexes log to wal; sharded dynamic indexes log each
	// insert to its owning shard's WAL in shardWALs.
	wal          *persist.WAL // acknowledged-insert log, dynamic only
	shardWALs    []*persist.WAL
	snapMu       sync.Mutex   // serialises snapshot+truncate pairs and file teardown
	snapshots    atomic.Int64 // snapshots written for this index
	lastSnapUnix atomic.Int64
	replayed     int64 // WAL inserts replayed at recovery (read-only after boot)
	// forceSnap requests a snapshot even with an empty WAL — set when a WAL
	// append failed, so records that are only in memory still reach disk on
	// the next snapshotter cycle.
	forceSnap atomic.Bool
	// degraded marks the entry's persistence as sick: a WAL append failed
	// (even after retries), so inserts are acknowledged with durable:false
	// and skip the log until a successful snapshot heals it (the snapshot
	// covers the unlogged records, and the WAL is reset underneath it).
	degraded atomic.Bool
	// persistErrors counts failed persistence operations for this index;
	// nonDurable counts inserts acknowledged without the durability
	// guarantee while degraded.
	persistErrors atomic.Int64
	nonDurable    atomic.Int64

	// Leader-side replication coordinates: the incarnation of this
	// entry's sequence space and the per-WAL stream origins (see
	// replication.go).
	repl replState
}

// newEntry wraps an index, discovering its optional capabilities once.
func newEntry(ix polyfit.Index) *entry {
	e := &entry{ix: ix, cq: ix.(polyfit.ContextQuerier)}
	e.ins, _ = ix.(polyfit.Inserter)
	e.shd, _ = ix.(polyfit.ShardSnapshotter)
	return e
}

// Server is an http.Handler serving a registry of named PolyFit indexes.
type Server struct {
	mu      sync.RWMutex
	indexes map[string]*entry // guarded by mu
	mux     *http.ServeMux

	// adminMu serialises registry admin (create/delete/restore) with the
	// persistence side effects those operations carry, so index files are
	// never created and removed concurrently for the same name. Queries and
	// inserts never touch it.
	adminMu sync.Mutex

	// Durability (nil/zero when no data dir is configured — see durability.go).
	store            *persist.Store
	logf             func(format string, args ...any)
	stop             chan struct{}
	done             chan struct{}
	closeOnce        sync.Once
	snapshotsWritten atomic.Int64
	walAppended      atomic.Int64
	recovery         RecoverySummary

	// Overload control (see admission.go) and request-lifecycle state.
	adm            *admission
	defaultTimeout time.Duration
	draining       atomic.Bool  // Drain/Close called: new requests get 503
	httpInFlight   atomic.Int64 // requests currently inside ServeHTTP
	timedOut       atomic.Int64 // queries that ran out of deadline (504)
	canceled       atomic.Int64 // queries abandoned by client disconnect (499)
	executed       atomic.Int64 // admitted queries and batches that reached the index
	panics         atomic.Int64 // handler panics recovered to a 500
	persistErrors  atomic.Int64 // failed persistence operations, server-wide
	nonDurableIns  atomic.Int64 // inserts acknowledged durable:false, server-wide

	// Replication (see replication.go and follower.go): epoch identifies
	// this boot in the wire protocol, instanceSeq hands out per-entry
	// incarnations, acks is the leader's follower-watermark table, and
	// follower is non-nil when this server replicates from a leader
	// (Config.Join).
	epoch       int64
	advertise   string
	instanceSeq atomic.Uint64
	acks        replAcks
	followerTTL time.Duration
	follower    *follower
}

// New returns a ready-to-serve in-memory Server with an empty registry.
// Use NewDurable to back the registry with a data directory.
func New() *Server {
	s, _ := NewDurable(Config{}) // no data dir: cannot fail
	return s
}

func newServer() *Server {
	s := &Server{indexes: make(map[string]*entry), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /v1/stats", s.handleServerStats)
	s.mux.HandleFunc("POST /v1/indexes", s.handleCreate)
	s.mux.HandleFunc("GET /v1/indexes", s.handleList)
	s.mux.HandleFunc("GET /v1/indexes/{name}", s.handleStats)
	s.mux.HandleFunc("DELETE /v1/indexes/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/indexes/{name}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/indexes/{name}/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/indexes/{name}/insert", s.handleInsert)
	s.mux.HandleFunc("POST /v1/indexes/{name}/rebuild", s.handleRebuild)
	s.mux.HandleFunc("GET /v1/indexes/{name}/marshal", s.handleMarshal)
	s.mux.HandleFunc("POST /v1/indexes/{name}/restore", s.handleRestore)
	// Replication endpoints (paths match internal/cluster's client — see
	// replication.go): node status, snapshot join, and WAL tail streaming.
	s.mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	s.mux.HandleFunc("GET /v1/cluster/snapshot/{name}", s.handleClusterSnapshot)
	s.mux.HandleFunc("GET /v1/cluster/wal/{name}", s.handleClusterTail)
	return s
}

// ServeHTTP wraps the mux with the request-lifecycle middleware: draining
// servers turn new requests away with a 503 + Retry-After (in-flight ones
// finish — Drain waits on the gauge incremented here), and a panicking
// handler is recovered to a 500 instead of tearing down the connection
// (and, under http.Server, the whole goroutine's request).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Count the request before checking the drain flag: Drain sets the flag
	// before reading the gauge, so either Drain sees this request and waits
	// for it, or this request sees the flag and is turned away.
	s.httpInFlight.Add(1)
	defer s.httpInFlight.Add(-1)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("server is shutting down"))
		return
	}
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.logf("polyfit-serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			writeError(w, http.StatusInternalServerError, errors.New("internal error (panic recovered)"))
		}
	}()
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// Drain stops accepting new requests (503 + Retry-After) and waits until
// every in-flight request has finished, or ctx expires. Call it between
// closing the listener and Close, so acknowledged work completes before
// durability teardown.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpInFlight.Load() == 0 {
		return nil
	}
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d requests still in flight: %w", s.httpInFlight.Load(), ctx.Err())
		case <-t.C:
			if s.httpInFlight.Load() == 0 {
				return nil
			}
		}
	}
}

// --- wire types -------------------------------------------------------------

// CreateRequest builds a new named index, either from raw data (keys and,
// for SUM/MIN/MAX, measures) or — static indexes only — from a previously
// marshalled blob.
type CreateRequest struct {
	Name            string    `json:"name"`
	Agg             string    `json:"agg"` // count | sum | min | max
	Dynamic         bool      `json:"dynamic"`
	Keys            []float64 `json:"keys,omitempty"`
	Measures        []float64 `json:"measures,omitempty"`
	EpsAbs          float64   `json:"eps_abs,omitempty"`
	Delta           float64   `json:"delta,omitempty"`
	Degree          int       `json:"degree,omitempty"`
	DisableFallback bool      `json:"disable_fallback,omitempty"`
	// Parallelism is the goroutine count for the build (and for later
	// merge-rebuilds of dynamic indexes, which inherit it). 0 selects
	// GOMAXPROCS; the produced index is identical for every worker count.
	Parallelism int `json:"parallelism,omitempty"`
	// Shards range-partitions the index into this many scatter-gather
	// shards (values ≤ 1 build unsharded). Sharded dynamic indexes get
	// shard-local inserts, per-shard merge-rebuilds, and — on durable
	// servers — one snapshot+WAL pair per shard, recovered independently.
	Shards int    `json:"shards,omitempty"`
	Blob   string `json:"blob,omitempty"` // base64, from /marshal
}

// StatsResponse reports one index's structure.
type StatsResponse struct {
	Name          string  `json:"name"`
	Aggregate     string  `json:"aggregate"`
	Dynamic       bool    `json:"dynamic"`
	Records       int     `json:"records"`
	Segments      int     `json:"segments"`
	Degree        int     `json:"degree"`
	Delta         float64 `json:"delta"`
	IndexBytes    int     `json:"index_bytes"`
	CoeffBytes    int     `json:"coeff_bytes"` // coefficient lanes, included in index_bytes
	RootBytes     int     `json:"root_bytes"`  // learned-root tables, included in index_bytes
	FallbackBytes int     `json:"fallback_bytes"`
	Encoding      string  `json:"encoding"` // "raw", "float32", "packed", or "mixed"
	BufferLen     int     `json:"buffer_len,omitempty"`

	// Sharding (only for sharded indexes): the shard count and one stats
	// row per shard.
	Shards     int          `json:"shards,omitempty"`
	ShardStats []ShardStats `json:"shard_stats,omitempty"`

	// Durability counters (only on servers with a data dir).
	Durable          bool  `json:"durable,omitempty"`
	Snapshots        int64 `json:"snapshots,omitempty"`          // snapshots written for this index
	LastSnapshotUnix int64 `json:"last_snapshot_unix,omitempty"` // seconds since epoch
	WALRecords       int64 `json:"wal_records,omitempty"`        // acknowledged inserts not yet in a snapshot
	WALBytes         int64 `json:"wal_bytes,omitempty"`
	ReplayedInserts  int64 `json:"replayed_inserts,omitempty"` // WAL inserts replayed at boot

	// Degradation counters (durable servers): PersistDegraded is true while
	// the index's WAL is sick and inserts are acknowledged durable:false;
	// the counters record how often persistence failed and how many inserts
	// were acknowledged without the durability guarantee.
	PersistDegraded   bool  `json:"persist_degraded,omitempty"`
	PersistErrors     int64 `json:"persist_errors,omitempty"`
	NonDurableInserts int64 `json:"non_durable_inserts,omitempty"`
}

// ShardStats is one shard's row in a sharded index's StatsResponse.
type ShardStats struct {
	Shard      int     `json:"shard"`
	Records    int     `json:"records"`
	Segments   int     `json:"segments"`
	IndexBytes int     `json:"index_bytes"`
	Encoding   string  `json:"encoding"`
	BufferLen  int     `json:"buffer_len,omitempty"`
	KeyLo      float64 `json:"key_lo"`
	KeyHi      float64 `json:"key_hi"`
	// WALRecords/WALBytes cover this shard's own log (durable sharded
	// dynamic indexes only).
	WALRecords int64 `json:"wal_records,omitempty"`
	WALBytes   int64 `json:"wal_bytes,omitempty"`
}

// QueryRequest answers one range; EpsRel > 0 requests the relative-error
// (Problem 2) path. TimeoutMS > 0 overrides the server's default query
// deadline for this request; when the deadline expires the query is
// abandoned and answered with 504.
type QueryRequest struct {
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	EpsRel    float64 `json:"eps_rel,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

// QueryResponse is the answer to a QueryRequest.
type QueryResponse struct {
	Value float64 `json:"value"`
	Found bool    `json:"found"`
	Exact bool    `json:"exact,omitempty"` // relative path used the exact fallback
	// Bound is the certified absolute error bound on value, present in
	// every query and batch response regardless of index layout: 2δ/δ for
	// unsharded answers, the composed 2δ·m for a sharded COUNT/SUM range
	// touching m shards, 0 for exact answers (see polyfit.Result.Bound).
	Bound float64 `json:"bound"`
}

// BatchRequest answers many ranges in one round trip via the amortised
// QueryBatch hot path. TimeoutMS behaves as in QueryRequest.
type BatchRequest struct {
	Ranges    []RangeJSON `json:"ranges"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

// RangeJSON is one interval of a batch.
type RangeJSON struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// BatchResponse carries one result per requested range, in order.
type BatchResponse struct {
	Results []QueryResponse `json:"results"`
}

// InsertRequest appends records to a dynamic index.
type InsertRequest struct {
	Records []Record `json:"records"`
}

// Record is one (key, measure) pair; COUNT indexes ignore the measure.
type Record struct {
	Key     float64 `json:"key"`
	Measure float64 `json:"measure"`
}

// InsertResponse reports per-record outcomes: Inserted counts successes,
// Errors holds the first few rejection messages (e.g. duplicate keys).
// Durable is true when the inserted records were fsynced to the write-ahead
// log before this response was sent. Degraded is true when the index's
// persistence is sick (a WAL write failed): the inserts are applied and
// acknowledged, but will only reach disk with the next successful
// snapshot — durability-sensitive clients should treat durable:false as
// "retry later or fsync externally".
type InsertResponse struct {
	Inserted int      `json:"inserted"`
	Rejected int      `json:"rejected"`
	Durable  bool     `json:"durable,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`
	Errors   []string `json:"errors,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---------------------------------------------------------------

// ErrExists reports a Create against a name already in the registry.
var ErrExists = errors.New("server: index already exists")

// Create builds an index from req and registers it under req.Name. It is
// the programmatic equivalent of POST /v1/indexes (used by preloaders and
// embedders). On a durable server the initial snapshot (and, for dynamic
// indexes, the WAL) is on disk before Create returns.
func (s *Server) Create(req CreateRequest) (StatsResponse, error) {
	if req.Name == "" {
		return StatsResponse{}, errors.New("name is required")
	}
	// Reject a taken name before paying for the build; the authoritative
	// check below still guards against a concurrent Create racing this one.
	s.mu.RLock()
	_, exists := s.indexes[req.Name]
	s.mu.RUnlock()
	if exists {
		return StatsResponse{}, fmt.Errorf("%w: %q", ErrExists, req.Name)
	}
	e, err := buildEntry(req)
	if err != nil {
		return StatsResponse{}, err
	}
	// Admin section: persist first, then publish, so no handler ever sees a
	// registered durable index without its files.
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	s.mu.RLock()
	_, exists = s.indexes[req.Name]
	s.mu.RUnlock()
	if exists {
		return StatsResponse{}, fmt.Errorf("%w: %q", ErrExists, req.Name)
	}
	if err := s.persistNew(req.Name, e); err != nil {
		return StatsResponse{}, fmt.Errorf("persist %q: %w", req.Name, err)
	}
	s.initRepl(e)
	s.mu.Lock()
	s.indexes[req.Name] = e
	s.mu.Unlock()
	return s.statsOf(req.Name, e), nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	var req CreateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	st, err := s.Create(req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrExists) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func buildEntry(req CreateRequest) (*entry, error) {
	if req.Blob != "" {
		raw, err := base64.StdEncoding.DecodeString(req.Blob)
		if err != nil {
			return nil, fmt.Errorf("decode blob: %w", err)
		}
		e, err := entryFromBlob(raw)
		if err != nil {
			return nil, err
		}
		if req.Dynamic && e.ins == nil {
			return nil, errors.New("dynamic=true but the blob is a static index (dynamic blobs come from DynamicIndex.MarshalBinary)")
		}
		return e, nil
	}
	agg, err := aggFromString(req.Agg)
	if err != nil {
		return nil, err
	}
	par := req.Parallelism
	if par == 0 {
		// Build across every available core by default: the result is
		// identical to a serial build, only the /build (and later rebuild)
		// latency changes.
		par = runtime.GOMAXPROCS(0)
	}
	// One spec-driven build for every variant: the request's layout fields
	// lower directly onto builder options, and the returned polyfit.Index
	// carries its capabilities (Inserter, ShardSnapshotter) itself.
	opts := []polyfit.Option{
		polyfit.WithMaxError(req.EpsAbs),
		polyfit.WithDelta(req.Delta),
		polyfit.WithDegree(req.Degree),
		polyfit.WithFallback(!req.DisableFallback),
		polyfit.WithParallelism(par),
	}
	if req.Dynamic {
		opts = append(opts, polyfit.WithDynamic())
	}
	if req.Shards > 1 {
		opts = append(opts, polyfit.WithShards(req.Shards))
	}
	ix, err := polyfit.New(polyfit.Spec{Agg: agg, Keys: req.Keys, Measures: req.Measures}, opts...)
	if err != nil {
		return nil, err
	}
	return newEntry(ix), nil
}

// aggFromString parses the wire aggregate name.
func aggFromString(s string) (polyfit.Agg, error) {
	switch s {
	case "count":
		return polyfit.Count, nil
	case "sum":
		return polyfit.Sum, nil
	case "min":
		return polyfit.Min, nil
	case "max":
		return polyfit.Max, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q (want count|sum|min|max)", s)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.indexes))
	for name := range s.indexes {
		names = append(names, name)
	}
	entries := make([]*entry, len(names))
	sort.Strings(names)
	for i, name := range names {
		entries[i] = s.indexes[name]
	}
	s.mu.RUnlock()
	out := make([]StatsResponse, len(names))
	for i, name := range names {
		out[i] = s.statsOf(name, entries[i])
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.statsOf(name, e))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	name := r.PathValue("name")
	s.adminMu.Lock()
	s.mu.Lock()
	e, ok := s.indexes[name]
	delete(s.indexes, name)
	s.mu.Unlock()
	var dropErr error
	if ok {
		dropErr = s.dropPersisted(name, e)
	}
	s.adminMu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no index %q", name))
		return
	}
	if dropErr != nil {
		writeError(w, http.StatusInternalServerError, dropErr)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// queryContext derives the execution context for one query: the request's
// timeout_ms if set, else the server default (DefaultQueryTimeout). Either
// way it inherits the client-disconnect cancellation of r.Context().
func (s *Server) queryContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.defaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

// statusClientClosedRequest is the nginx-convention status for a request
// whose client disconnected before the response was ready. net/http has
// no named constant for it.
const statusClientClosedRequest = 499

// admitted is the path /query and /batch share once the request is
// decoded: one admission slot for the whole request (a batch is the
// amortised path — per-range slots would serialise it pointlessly), then
// exec under the request's deadline, then the encoded answer.
func (s *Server) admitted(w http.ResponseWriter, r *http.Request, timeoutMS int64, exec func(context.Context) (any, error)) {
	ctx, cancel := s.queryContext(r, timeoutMS)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		s.writeQueryError(w, err, "while queued")
		return
	}
	defer s.adm.release()
	runQueryDelayHooks(ctx)
	s.executed.Add(1)
	out, err := exec(ctx)
	if err != nil {
		s.writeQueryError(w, err, "during execution")
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// writeQueryError answers a query that was not admitted or failed to
// execute. A shed is a 429. A dead context is told apart by how it died:
// the deadline expired (504, counted in timed_out) or the client hung up
// first (499, counted in canceled_queries). Folding disconnects into
// timed_out would inflate the timeout signal operators alert on — a
// disconnect storm is a client problem, an expiry storm is a
// serving-latency problem. Any other error is the request's own: 409
// when the exact fallback it needs is disabled, else 400.
func (s *Server) writeQueryError(w http.ResponseWriter, err error, during string) {
	switch {
	case errors.Is(err, errShed):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
		writeError(w, statusClientClosedRequest, fmt.Errorf("client closed request %s: %w", during, err))
	case errors.Is(err, context.DeadlineExceeded):
		s.timedOut.Add(1)
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("query deadline expired %s: %w", during, err))
	case errors.Is(err, polyfit.ErrNoFallback):
		writeError(w, http.StatusConflict, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	_, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBytes)
	var req QueryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.EpsRel < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("non-positive relative error %g", req.EpsRel))
		return
	}
	s.admitted(w, r, req.TimeoutMS, func(ctx context.Context) (any, error) {
		rng := polyfit.Range{Lo: req.Lo, Hi: req.Hi}
		var res polyfit.Result
		var err error
		if req.EpsRel > 0 {
			res, err = e.cq.QueryRelContext(ctx, rng, req.EpsRel)
		} else {
			res, err = e.cq.QueryContext(ctx, rng)
		}
		return QueryResponse{Value: res.Value, Found: res.Found, Exact: res.Exact, Bound: res.Bound}, err
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	_, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBytes)
	var req BatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.admitted(w, r, req.TimeoutMS, func(ctx context.Context) (any, error) {
		ranges := make([]polyfit.Range, len(req.Ranges))
		for i, rr := range req.Ranges {
			ranges[i] = polyfit.Range{Lo: rr.Lo, Hi: rr.Hi}
		}
		results, err := e.cq.QueryBatchContext(ctx, ranges)
		if err != nil {
			return nil, err
		}
		out := BatchResponse{Results: make([]QueryResponse, len(results))}
		for i, res := range results {
			out.Results[i] = QueryResponse{Value: res.Value, Found: res.Found, Bound: res.Bound}
		}
		return out, nil
	})
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if e.ins == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("index %q is static; build it with dynamic=true to insert", name))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxInsertBytes)
	var req InsertRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// While degraded, skip the WAL entirely: its file is sick, and the
	// records are already marked for the forced-snapshot path. Serving
	// never blocks on (or retries against) a disk known to be bad.
	degraded := e.degraded.Load()
	insert := e.ins.Insert
	resp := InsertResponse{}
	var accepted []persist.Record          // plain dynamic: one log
	var acceptedByShard [][]persist.Record // sharded: one log per owning shard
	if len(e.shardWALs) > 0 {
		acceptedByShard = make([][]persist.Record, len(e.shardWALs))
	}
	for _, rec := range req.Records {
		if err := insert(rec.Key, rec.Measure); err != nil {
			resp.Rejected++
			if len(resp.Errors) < 8 {
				resp.Errors = append(resp.Errors, err.Error())
			}
			continue
		}
		resp.Inserted++
		switch {
		case acceptedByShard != nil:
			sh := e.shd.ShardOf(rec.Key)
			acceptedByShard[sh] = append(acceptedByShard[sh], persist.Record{Key: rec.Key, Measure: rec.Measure})
		case e.wal != nil:
			accepted = append(accepted, persist.Record{Key: rec.Key, Measure: rec.Measure})
		}
	}
	// Durability barrier: acknowledged inserts must be fsynced in the WAL
	// (each shard's own WAL, for sharded indexes) before the 200 goes out.
	// A log failure (the WAL layer already retried with backoff) degrades
	// rather than fails: the records are applied and acknowledged with
	// durable:false, the entry is flagged for a forced snapshot — the only
	// remaining path to disk (a retried insert would be rejected as
	// duplicate) — and later inserts skip the sick log until a successful
	// snapshot heals it. The insert path never blocks on a bad disk.
	walFailed := func(err error) {
		degraded = true
		e.degraded.Store(true)
		e.forceSnap.Store(true)
		e.persistErrors.Add(1)
		s.persistErrors.Add(1)
		s.logf("polyfit-serve: WAL append for %q failed, degrading to snapshot-only durability: %v", name, err)
	}
	logged := int64(0)
	if !degraded && len(accepted) > 0 {
		if err := e.wal.Append(accepted); err != nil {
			walFailed(err)
		} else {
			logged += int64(len(accepted))
		}
	}
	if !degraded {
		for sh, recs := range acceptedByShard {
			if len(recs) == 0 {
				continue
			}
			if err := e.shardWALs[sh].Append(recs); err != nil {
				walFailed(fmt.Errorf("shard %d: %w", sh, err))
				break
			}
			logged += int64(len(recs))
		}
	}
	if degraded {
		// Re-arm the forced snapshot on every degraded insert: a snapshot
		// may be concurrently clearing the flag, and these records must be
		// covered by the next one.
		e.forceSnap.Store(true)
		resp.Degraded = true
		if n := int64(resp.Inserted); n > 0 {
			e.nonDurable.Add(n)
			s.nonDurableIns.Add(n)
		}
	}
	if logged > 0 {
		s.walAppended.Add(logged)
	}
	// Durable only when every accepted record reached a log in this
	// request (in-memory servers have no logs and promise nothing).
	resp.Durable = !degraded && logged > 0
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if e.ins == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("index %q is static", name))
		return
	}
	if err := e.ins.Rebuild(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// A rebuild folds the buffer into a fresh base; snapshot it right away
	// (cheap — serialization, not re-fitting) and drop the covered WAL.
	if s.store != nil {
		if err := s.snapshotEntry(name, e); err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	// An explicit rebuild re-fits the base at a point followers cannot
	// reproduce from the record stream alone; start a new incarnation so
	// they re-join from the post-rebuild snapshot.
	s.bumpInstance(e)
	writeJSON(w, http.StatusOK, s.statsOf(name, e))
}

func (s *Server) handleMarshal(w http.ResponseWriter, r *http.Request) {
	_, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	blob, err := e.ix.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(blob) //nolint:errcheck
}

// --- helpers ----------------------------------------------------------------

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (string, *entry, bool) {
	name := r.PathValue("name")
	s.mu.RLock()
	e, ok := s.indexes[name]
	s.mu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no index %q", name))
		return name, nil, false
	}
	return name, e, true
}

func (s *Server) statsOf(name string, e *entry) StatsResponse {
	// Stats() reads one consistent snapshot, so records/index_bytes/
	// buffer_len agree even while a merge-rebuild races this request.
	st := e.ix.Stats()
	out := StatsResponse{
		Name:          name,
		Aggregate:     st.Aggregate.String(),
		Dynamic:       e.ins != nil,
		Records:       st.Records,
		Segments:      st.Segments,
		Degree:        st.Degree,
		Delta:         st.Delta,
		IndexBytes:    st.IndexBytes,
		CoeffBytes:    st.CoeffBytes,
		RootBytes:     st.RootBytes,
		FallbackBytes: st.FallbackBytes,
		Encoding:      st.Encoding,
		BufferLen:     st.BufferLen,
		Shards:        st.Shards,
	}
	if sh, ok := e.ix.(polyfit.Sharder); ok {
		for i, ss := range sh.ShardStats() {
			row := ShardStats{
				Shard:      i,
				Records:    ss.Records,
				Segments:   ss.Segments,
				IndexBytes: ss.IndexBytes,
				Encoding:   ss.Encoding,
				BufferLen:  ss.BufferLen,
				KeyLo:      ss.KeyLo,
				KeyHi:      ss.KeyHi,
			}
			if i < len(e.shardWALs) && e.shardWALs[i] != nil {
				row.WALRecords = e.shardWALs[i].Records()
				row.WALBytes = e.shardWALs[i].Size()
			}
			out.ShardStats = append(out.ShardStats, row)
		}
	}
	if s.store != nil {
		out.Durable = true
		out.Snapshots = e.snapshots.Load()
		out.LastSnapshotUnix = e.lastSnapUnix.Load()
		out.ReplayedInserts = e.replayed
		out.PersistDegraded = e.degraded.Load()
		out.PersistErrors = e.persistErrors.Load()
		out.NonDurableInserts = e.nonDurable.Load()
		if e.wal != nil {
			out.WALRecords = e.wal.Records()
			out.WALBytes = e.wal.Size()
		}
		for _, wal := range e.shardWALs {
			if wal != nil {
				out.WALRecords += wal.Records()
				out.WALBytes += wal.Size()
			}
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// writeError answers a structured error. The backpressure statuses — 429
// shed, 503 draining — carry Retry-After so well-behaved clients pace
// their retries.
func writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// decodeJSON decodes the request body into v, answering a structured 413
// when the route's MaxBytesReader cap was hit and a 400 for anything else.
// It reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit for this endpoint", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}
