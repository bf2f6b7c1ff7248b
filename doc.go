// Package polyfit is a from-scratch Go implementation of PolyFit, the
// polynomial-based learned index for fast approximate range aggregate
// queries (Li, Chan, Yiu, Jensen — EDBT 2021, arXiv:2003.08031).
//
// A PolyFit index replaces the n keys of a traditional aggregate index with
// h ≪ n polynomial segments fitted to the key-cumulative function (for
// COUNT/SUM) or the key-measure function (for MIN/MAX) under a bounded
// maximum-error constraint. Range aggregates are then answered from the
// polynomials alone — two evaluations for COUNT/SUM, two constrained
// maximisations plus an O(1) lookup for MIN/MAX — with provable absolute or
// relative error guarantees.
//
// # Quick start
//
// One builder constructs every index variant; the layout is configuration,
// not a type:
//
//	keys := []float64{ /* sorted, distinct */ }
//	ix, err := polyfit.New(
//		polyfit.Spec{Agg: polyfit.Count, Keys: keys},
//		polyfit.WithMaxError(100),
//	)
//	if err != nil { ... }
//	res, _ := ix.Query(polyfit.Range{Lo: lo, Hi: hi})
//	// res.Value within res.Bound (≤ 100) of the exact count
//	rel, _ := ix.QueryRel(polyfit.Range{Lo: lo, Hi: hi}, 0.01) // ≤1% error
//
// Every index implements the Index interface — Query, QueryRel, QueryBatch
// and their context-taking twins, Stats, MarshalBinary — and every answer
// is a Result carrying the certified absolute error bound in Result.Bound,
// whatever the layout. All layouts answer through one query engine, so the
// εrel gate, the exact fallback and the bound (composed across shards when
// sharded) are the same code for each; an unsharded index is its one-shard
// case.
// Functional options pick the layout and tuning:
//
//	polyfit.WithMaxError(eps)   // absolute guarantee εabs (or WithDelta(δ))
//	polyfit.WithDegree(d)       // polynomial degree (default 2)
//	polyfit.WithDynamic()       // insert support (Index also implements Inserter)
//	polyfit.WithShards(k)       // k-way range partitioning (also Sharder)
//	polyfit.WithParallelism(n)  // build with n goroutines (identical output)
//	polyfit.WithFallback(false) // skip the exact structures behind QueryRel
//	polyfit.WithEncoding(e)     // pin the coefficient encoding (default EncAuto)
//
// Capabilities beyond the uniform contract are discovered by assertion:
//
//	if ins, ok := ix.(polyfit.Inserter); ok { errs := ins.InsertBatch(keys, measures) }
//	if sh, ok := ix.(polyfit.Sharder); ok { fmt.Println(sh.NumShards()) }
//
// polyfit.Open restores any serialised one-key index behind the same
// interface, sniffing the blob kind (static, dynamic, sharded); Open2D
// restores two-key indexes. Corrupt blobs are rejected with an error
// wrapping ErrCorruptBlob — never a panic.
//
// # Errors
//
// All failures wrap the package's sentinel errors — ErrEmptyKeys,
// ErrUnsortedKeys, ErrBadOptions, ErrAggMismatch, ErrInvalidRange,
// ErrNoFallback, ErrDuplicateKey, ErrInvalidRecord, ErrCorruptBlob — so
// callers classify
// them with errors.Is instead of matching message text. This contract is
// machine-enforced: the project's static-analysis suite (internal/lint,
// run blocking in CI as `make lint`) flags any exported error path that
// constructs an error wrapping no sentinel. The same suite enforces the
// module's other unwritten rules — no plain access of atomically-accessed
// fields, "// guarded by <mu>" field annotations, Result.Bound set on
// every non-error return (//polyfit:exact opts out), float-free
// //polyfit:nofloat functions, and error-checked Sync/Close on
// write-opened files — with per-line exceptions via
// "//lint:ignore <analyzer> reason".
//
// # Guarantees
//
//   - Query on a COUNT/SUM index built with WithMaxError(ε) satisfies
//     |A − R| ≤ ε for query endpoints drawn from the key set (the paper's
//     workload; arbitrary endpoints inside fitted segments carry a small
//     documented slack, see DESIGN.md §3); the per-answer Result.Bound
//     reports the certified bound, composed across shards when sharded.
//   - QueryRel answers within the requested relative error; when the
//     Lemma 3/5/7 gate cannot certify the bound the exact fallback structure
//     (a key-cumulative array or aggregate tree) answers instead, so the
//     result is always within the requested relative error.
//
// # Accuracy contract (oracle-verified)
//
// The guarantees above are differentially tested, not merely asserted: the
// internal/oracle harness builds every index variant (static, dynamic,
// sharded, sharded-dynamic) and an exact referee — a bulk-loaded B+-tree
// rank structure for COUNT, brute force for SUM/MAX/MIN, sharing no code
// with the index — over identical data drawn from four key distributions
// (uniform, zipf, clustered, adversarial-duplicate), and checks thousands
// of random workload ranges per combination on every CI run. The verified
// contract is:
//
//   - COUNT/SUM: |A − R| ≤ εabs, two-sided and strict, at workload
//     endpoints (dataset keys); for sharded indexes the bound composes to
//     εabs per touched shard and is reported in Result.Bound — which the
//     root-package bound oracle verifies on all four variants, batch paths
//     included.
//   - MIN/MAX: R ≤ A + εabs strictly (the index never misses the true
//     extremum by more than the bound). The opposite side carries the
//     between-sample slack documented in DESIGN.md §3.3 — maximising a
//     fitted polynomial over a continuous clipped interval can slightly
//     exceed the sample-level bound — verified to stay within 2·εabs and
//     to occur rarely (≤2.5% of ranges across all tested distributions).
//
// Metamorphic tests (same harness) verify range additivity, approximate
// COUNT monotonicity in the upper endpoint, and that a sharded index
// answers shard-interior ranges bitwise-identically to an unsharded index
// over the same chunk.
//
// # Sharding
//
// WithShards(k) range-partitions the keys into k contiguous shards, each an
// ordinary PolyFit index over its own chunk. Queries split at the shard
// boundaries, the overlapping shards answer in parallel, and the partials
// merge (COUNT/SUM add, MIN/MAX combine); the composed absolute bound — 2δ
// per touched shard for COUNT/SUM, δ for MIN/MAX — is reported in
// Result.Bound. Inserts into a sharded dynamic index take only the owning
// shard's lock, and a merge-rebuild re-fits one shard's chunk while queries
// to every shard keep answering from lock-free snapshots. On a durable
// server each shard persists its own snapshot+WAL pair, recovered
// independently under a manifest (the ShardSnapshotter capability).
//
// # Dynamic indexes and concurrency
//
// WithDynamic() adds insert support via a delta buffer over the static
// index: two sorted runs, a tail of the newest records that merges into
// the main run at 1024 records, each with prefix sums (COUNT/SUM) or
// block extrema under a sparse table (MIN/MAX). Applying a record costs
// O(1024 + b/1024) copies for b buffered records, whether it comes alone
// (Insert) or in a batch (InsertBatch, which matches one Insert per record
// exactly, errors included). A COUNT/SUM query adds O(log b) for the
// buffer, a MIN/MAX query O(log b) plus a scan of at most the tail and two
// 64-record blocks of the main run.
// Once the buffer holds half as many records as the base, the insert that
// filled it merge-rebuilds the base, so growing an index from n₀ to n keys
// re-fits about 3n keys in all. The buffer is aggregated exactly and the
// base is asked only at its own keys, where its fit is certified, so every
// guarantee above carries over — at any endpoint, not only at keys, since
// buffered keys lie between the base's. Non-finite keys and measures are
// rejected, at build and at insert, with ErrInvalidRecord. Dynamic indexes
// are safe for concurrent use by multiple goroutines with the following
// contract:
//
//   - Queries (Query, QueryRel, QueryBatch, Stats) are lock-free: they read
//     one immutable snapshot through an atomic pointer and never block —
//     not even while a merge-rebuild is running, because the new base index
//     is constructed off to the side and published with a single pointer
//     swap.
//   - Each query sees one consistent snapshot: a concurrent Insert or
//     InsertBatch either precedes all of a QueryBatch's answers or none of
//     them.
//   - Insert, InsertBatch and Rebuild serialise on an internal lock; an
//     insert that triggers a merge-rebuild blocks other writers (not
//     readers) until the rebuild completes.
//   - Monotonicity: once an Insert or InsertBatch returns, every
//     subsequent query observes its inserted records.
//
// Static indexes are immutable after construction and therefore trivially
// safe for concurrent readers.
//
// # Batched queries
//
// Index.QueryBatch answers many ranges per call, each Result carrying its
// own Bound. Batches of ascending non-overlapping windows (tiled scans,
// time-bucketed dashboards) are answered with a forward-only segment
// cursor instead of per-query binary searches; other batches fall back to
// direct evaluation unless the segment array is so much larger than the
// batch that sorting pays. The serving layer (internal/server,
// cmd/polyfit-serve) exposes this as a batched HTTP endpoint answering
// many ranges per round trip, with "bound" on every response.
//
// # Construction performance
//
// WithParallelism(n) builds the index with n goroutines: greedy
// segmentation runs per key-array chunk and junctions are re-grown over the
// full array, so the produced index is byte-identical to a serial build for
// every worker count. Dynamic indexes reuse the setting for merge-rebuilds.
// Internally each construction worker owns a reusable minimax fitter
// (internal/minimax.Fitter) holding all solver scratch; a Fitter is NOT
// concurrency-safe and must stay confined to one goroutine — the public API
// manages this automatically. Queries locate segments through a learned
// root (a flat interpolation table over the segment boundaries) in O(1)
// expected time with zero allocations; its size is reported in
// Stats.RootBytes and included in Stats.IndexBytes.
//
// # Succinct coefficient storage
//
// Segments are stored as structure-of-arrays coefficient lanes — one
// contiguous array per polynomial degree — that Query and QueryBatch
// evaluate branch-free, and the per-index encoding of those lanes is chosen
// at build time (WithEncoding, default EncAuto):
//
//   - EncRaw: float64 lanes plus explicit per-segment frames; bit-identical
//     to evaluating the fitted polynomials directly, and the encoding every
//     index can fall back to.
//   - EncF32: float32 lanes with float64 segment bounds (frames derived from
//     the bounds); about half the coefficient bytes.
//   - EncPacked: segment starts snapped to a uint32 grid over the key span
//     and coefficients stored as 16- or 32-bit fixed-point values on
//     per-lane affine grids; roughly a quarter of the raw footprint.
//     COUNT/SUM only.
//
// Compression never weakens the contract: a compressed candidate is adopted
// only after the full encoded query pipeline (locate, clamp, evaluate)
// reproduces every fitted sample within the already-certified δ, so every
// guarantee in this file holds identically for every encoding — the oracle
// harness re-verifies all encodings against the exact referee. When
// certification fails (MIN/MAX extrema, negative SUM measures, key spans the
// grid cannot resolve), the build silently falls back to the next heavier
// encoding. Stats reports the outcome: Stats.Encoding names the certified
// encoding ("mixed" for sharded indexes whose shards chose differently) and
// Stats.CoeffBytes the coefficient-lane footprint inside Stats.IndexBytes.
//
// # Two keys
//
// NewCount2DIndex builds the Section VI variant: a quadtree of bivariate
// polynomial surfaces over the cumulative count surface, answering
// rectangle COUNT queries with four surface evaluations. Its contract
// mirrors the 1D one adapted to rectangles: Query and QueryRel return the
// same Result with the certified 4δ bound (Lemma 6), NaN rectangles are
// rejected with ErrInvalidRange, and Open2D restores serialised blobs.
//
// # Persistence
//
// Every variant implements encoding.BinaryMarshaler; polyfit.Open (one-key)
// and polyfit.Open2D (two-key) restore blobs by sniffing their magic bytes,
// and DetectBlob exposes the sniffing for callers that route blobs
// themselves (sharded containers nest per-shard blobs behind a shard
// directory).
//
// Static indexes serialise the compact polynomial structure only; exact
// fallbacks (which are O(n)) are not serialised, so loaded static indexes
// serve absolute-guarantee queries and return ErrNoFallback for relative
// ones.
//
// Dynamic indexes use a separate, versioned format that round-trips the
// complete dynamic state: the build options (the fallback setting
// included), the raw keys and measures, the delta buffer, and the fitted
// base index. Open therefore restores a fully operational dynamic index —
// inserts, duplicate detection, merge-rebuilds, and relative-error queries
// (fallbacks are reconstructed from the serialised raw data when enabled)
// behave exactly as on the original, and every query answers identically,
// bit for bit. Restoring never re-fits. Corrupt or truncated blobs of any
// format are rejected with an error wrapping ErrCorruptBlob, never a panic.
//
// Blob formats are versioned and load backward-compatibly: the coefficient
// encodings bumped the static format to POL1 v2, the dynamic format to POLD
// v3, and the sharded container to POLS v2, and every pre-encoding blob
// (POL1 v1, POLD v2, POLS v1) still loads and answers bit-identically to
// the index that wrote it — old blobs simply land on the raw encoding.
// POLD v4 records the split of the delta buffer into its main and tail
// runs, so a restored index merges its tail at the same records as the
// original; v2 and v3 blobs load their buffer as the main run with an
// empty tail. The
// encoding itself round-trips in the blob, so loading never re-certifies
// (and never re-fits); learned roots and lookup tables are rebuilt
// deterministically on load and are not serialised.
//
// # Durability contract (serving layer)
//
// The HTTP serving layer (internal/server, cmd/polyfit-serve -data-dir)
// builds crash durability on top of that round-trip: each index gets an
// atomically written, checksummed snapshot file plus a write-ahead log of
// inserts. Once a data dir is configured, an acknowledged insert — an
// HTTP 200 counting the record as inserted — has been fsynced to the WAL
// before the response was sent and is therefore guaranteed to be
// reflected in query answers after any subsequent crash and restart,
// SIGKILL included. Recovery loads snapshots, replays WAL tails
// idempotently (duplicate keys are rejected exactly, so a log overlapping
// its snapshot re-applies nothing), truncates torn final records, and
// skips — reports, never crashes on — corrupt files.
//
// # Robustness contract (serving layer)
//
// The serving layer is built to stay predictable when its environment is
// not — under overload, slow queries, and failing storage:
//
//   - Deadlines: every query and batch runs under a context deadline (a
//     server default, overridable per request) that is honored through the
//     sharded scatter-gather; an expired deadline answers 504, it never
//     leaves work running unobserved. A client that hangs up instead is
//     answered 499-style and counted canceled, not timed out, so the
//     timeout signal operators alert on stays clean.
//   - One query path: a point query takes the same path as a batch —
//     decode, one admission slot, execute, encode. Every admitted query
//     executes against the index; nothing is cached or shared between
//     requests, because a lookup is well under a microsecond of a served
//     read (0.24 µs of 88 µs on the benchmark's traced point workload).
//   - Admission control: at most a configured number of queries execute
//     concurrently, a bounded number more may queue, and everything beyond
//     that is shed immediately with 429 + Retry-After — the decision is
//     lock-free, so an overloaded server says "try later" in microseconds
//     instead of timing everyone out. Inserts are never gated.
//   - Fault degradation: a failed WAL append (after bounded retries) never
//     fails or blocks the insert — the index degrades to snapshot-only
//     durability, the response says "durable": false, an immediate
//     snapshot is scheduled, and a later successful snapshot heals the
//     index back to full WAL durability. Acknowledged-durable inserts
//     survive SIGKILL under every fault schedule the chaos harness injects
//     (make chaos).
//   - Graceful shutdown drains: stop accepting, finish in-flight requests
//     under a deadline, then snapshot and close — never the reverse order.
//     Every request is counted in flight before it checks the drain flag,
//     so none is still running when Drain returns nil.
//
// A panic in a handler is recovered to a 500 (and counted) rather than
// taking the process down. All of it is observable in /v1/stats: in-flight,
// queued, shed, timed-out, canceled and executed queries, recovered
// panics, degraded indexes, persist errors, and non-durable inserts.
//
// # Distributed serving contract (replication tier)
//
// internal/cluster extends the single durable server into a replicated
// tier — read replicas, a hedged scatter-gather router, and multi-process
// shard placement — under a deliberately asymmetric design: one leader
// owns the data dir and the write path, and everything else is derived
// state that can be killed and rebuilt from it. The contract:
//
//   - Replication is WAL streaming. A follower (polyfit-serve -join) boots
//     each index from the leader's snapshot blob and then applies the
//     leader's WAL records — the same fsynced, CRC-protected records the
//     durability contract above is built on — in leader order, framed in
//     a tail protocol keyed by (epoch, instance). Any coordinate mismatch
//     makes the follower resync from a fresh snapshot rather than apply
//     records to the wrong base.
//   - Determinism, not quorum, is the correctness story: a dynamic
//     index's state is a pure function of snapshot + ordered insert
//     stream, so a caught-up follower answers every query byte-for-byte
//     identically to the leader. This holds under a single writer (the
//     intended deployment); the replication tests assert raw-byte
//     response equality under -race.
//   - Followers are read-only: writes answer 409 Conflict with the
//     leader's URL in X-Polyfit-Leader. Reads carry an explicit staleness
//     label (staleness_ms in /v1/stats), and the leader truncates a WAL
//     only past the slowest live follower's acknowledged watermark, so a
//     lagging follower never finds its tail missing.
//   - The router (polyfit-serve -route) forwards writes to the leader and
//     fans reads over healthy replicas with hedged requests: fastest
//     replica first, a second attempt after -hedge-delay, first
//     definitive answer wins, loser canceled; errors fail over
//     immediately. A request's max_staleness_ms restricts candidates to
//     replicas fresh enough to serve it — exhausting the candidates
//     answers 503, never silently-stale data.
//   - Placement (cluster.Split / cluster.Deploy) regroups a sharded
//     index's POLS container into per-node sub-indexes with disjoint key
//     ownership; the router partitions inserts by cut key and merges
//     query partials with the same merge function the in-process sharded
//     index uses, so Result.Bound stays a certified over-estimate across
//     process boundaries.
//
// The tier inherits the durability contract unchanged: kill -9 any single
// node and the router keeps answering reads; kill -9 the leader and every
// durable-acknowledged insert is still answered after restart. CI enforces
// this end-to-end (make cluster).
//
// Everything in this module — the minimax fitting stack (exchange algorithm
// and a revised dual simplex over LP (9)), greedy segmentation with
// exponential search, the exact baselines (prefix arrays, aggregate trees,
// an STR-packed aR-tree, a bulk-loaded B+-tree), the learned baselines (RMI,
// FITing-tree), the sampling and histogram heuristics, and the experiment
// harness reproducing every table and figure of the paper — is implemented
// in this repository with the Go standard library only. See DESIGN.md for
// the full inventory and EXPERIMENTS.md for paper-vs-measured results.
package polyfit
