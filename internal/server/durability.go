package server

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	polyfit "repro"
	"repro/internal/persist"
)

// Durability wiring: the serving layer's registry can be backed by a data
// directory (internal/persist). The contract, once a data dir is
// configured:
//
//   - Create/restore writes a CRC-checked snapshot of the index before the
//     request is acknowledged.
//   - An acknowledged insert (HTTP 200 counting it in "inserted") has been
//     fsynced to the index's write-ahead log before the response was sent,
//     and therefore survives a crash — SIGKILL included.
//   - On boot the registry is recovered: every snapshot is loaded (no
//     re-fitting; dynamic blobs carry their fitted base) and the WAL is
//     replayed on top. Corrupt or truncated files are reported and skipped
//     — recovery never panics and never blocks the healthy indexes.
//   - A background snapshotter periodically folds WAL-covered inserts into
//     a fresh snapshot and drops the covered log prefix, bounding both
//     recovery time and log growth. Forced rebuilds snapshot synchronously
//     (PR 2's parallel construction keeps that cheap).
//
// WAL replay is idempotent: dynamic indexes reject duplicate keys exactly,
// so a log that overlaps its snapshot (crash between snapshot rename and
// log truncation) re-applies nothing.

// Config configures a durable server. The zero value (no DataDir) is a
// purely in-memory server identical to New().
type Config struct {
	// DataDir enables durability: snapshots and WALs live here, and the
	// registry is recovered from it on startup.
	DataDir string
	// SnapshotInterval is the background snapshotter period (default 15s).
	// Negative disables the background snapshotter (snapshots still happen
	// on create, restore, rebuild, and Close).
	SnapshotInterval time.Duration
	// Logf receives recovery and snapshotter diagnostics (default: discard).
	Logf func(format string, args ...any)

	// FS overrides the filesystem the data dir is accessed through
	// (default: the real OS filesystem). Fault-injection harnesses pass a
	// faultfs.FS here to exercise the degradation paths.
	FS persist.FS
	// Retry overrides the persistence retry policy (zero value selects
	// persist.DefaultRetry). Transient write/fsync failures are retried
	// with exponential backoff before a persistence operation is declared
	// failed and the degradation machinery engages.
	Retry persist.RetryPolicy

	// MaxConcurrentQueries bounds simultaneously executing query/batch
	// requests (default 4×GOMAXPROCS). MaxQueuedQueries bounds how many
	// more may wait for a slot (default 4× the concurrency limit); beyond
	// that, queries are shed with 429 + Retry-After. Inserts and admin
	// requests are never gated.
	MaxConcurrentQueries int
	MaxQueuedQueries     int
	// DefaultQueryTimeout is the query deadline applied when a request
	// carries no timeout_ms (default 5s; negative disables the default
	// deadline). An expired deadline abandons the query and answers 504.
	DefaultQueryTimeout time.Duration

	// Join turns the server into a read replica of the leader at this
	// base URL (see follower.go): the registry is mirrored from the
	// leader's snapshots + WAL streams, reads are served locally at a
	// reported staleness, and writes are rejected with 409 + a Leader
	// hint header. Mutually exclusive with DataDir — the leader owns the
	// durable state; followers replicate in memory and re-join on
	// restart.
	Join string
	// Advertise is this node's public base URL: followers use it as
	// their ack-table identity, leaders report it in cluster status.
	Advertise string
	// ReplPollInterval is the follower's idle delay between sync cycles
	// (default 25ms); ReplWait the long-poll budget it requests per WAL
	// tail (default 200ms, capped server-side at 5s).
	ReplPollInterval time.Duration
	ReplWait         time.Duration
	// FollowerTTL bounds how long a silent follower's acknowledgement
	// keeps pinning WAL truncation on the leader (default 30s). A
	// follower that returns after expiry simply re-joins from a
	// snapshot.
	FollowerTTL time.Duration
}

// RecoverySummary reports what a durable server found in its data dir at
// boot.
type RecoverySummary struct {
	Indexes         int           // indexes restored into the registry
	Static          int           // of which static
	Dynamic         int           // of which dynamic
	ReplayedInserts int64         // WAL records applied on top of snapshots
	SkippedInserts  int64         // WAL records already covered by a snapshot
	CorruptSkipped  int           // indexes skipped due to corrupt/unreadable files
	TornWALBytes    int           // bytes dropped from torn WAL tails
	Duration        time.Duration // wall-clock recovery time
}

func (r RecoverySummary) String() string {
	return fmt.Sprintf("recovered %d indexes (%d static, %d dynamic), replayed %d WAL inserts (%d already in snapshots, %d torn bytes dropped), skipped %d corrupt, in %v",
		r.Indexes, r.Static, r.Dynamic, r.ReplayedInserts, r.SkippedInserts,
		r.TornWALBytes, r.CorruptSkipped, r.Duration.Round(time.Millisecond))
}

// NewDurable returns a Server backed by cfg.DataDir: existing indexes are
// recovered before it returns, and new work is persisted per the
// durability contract above. With an empty DataDir it behaves exactly like
// New and never returns an error.
func NewDurable(cfg Config) (*Server, error) {
	if cfg.Join != "" && cfg.DataDir != "" {
		return nil, errors.New("server: Join and DataDir are mutually exclusive — the leader owns the durable state, followers replicate in memory")
	}
	s := newServer()
	s.logf = cfg.Logf
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.epoch = time.Now().UnixNano()
	s.advertise = cfg.Advertise
	s.followerTTL = cfg.FollowerTTL
	if s.followerTTL <= 0 {
		s.followerTTL = 30 * time.Second
	}
	s.defaultTimeout = cfg.DefaultQueryTimeout
	if s.defaultTimeout == 0 {
		s.defaultTimeout = 5 * time.Second
	}
	maxConc := cfg.MaxConcurrentQueries
	if maxConc <= 0 {
		maxConc = 4 * runtime.GOMAXPROCS(0)
	}
	maxQueue := cfg.MaxQueuedQueries
	if maxQueue <= 0 {
		maxQueue = 4 * maxConc
	}
	s.adm = newAdmission(maxConc, maxQueue)
	if cfg.DataDir == "" {
		if cfg.Join != "" {
			s.follower = newFollower(s, cfg)
			go s.follower.run()
		}
		return s, nil
	}
	store, err := persist.OpenFS(cfg.DataDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	if cfg.Retry != (persist.RetryPolicy{}) {
		store.SetRetryPolicy(cfg.Retry)
	}
	s.store = store
	if err := s.recover(); err != nil {
		return nil, err
	}
	interval := cfg.SnapshotInterval
	if interval == 0 {
		interval = 15 * time.Second
	}
	if interval > 0 {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.snapshotLoop(interval)
	}
	return s, nil
}

// Recovery returns the boot-time recovery summary (zero for in-memory
// servers).
func (s *Server) Recovery() RecoverySummary { return s.recovery }

// Durable reports whether the server persists to a data dir.
func (s *Server) Durable() bool { return s.store != nil }

// recover loads every index found in the data dir: snapshot first, then
// the WAL replayed on top. Damaged indexes are logged and skipped so one
// bad file never takes the whole registry down.
func (s *Server) recover() error {
	start := time.Now()
	names, err := s.store.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		e, replayed, skipped, torn, err := s.recoverIndex(name)
		if err != nil {
			s.recovery.CorruptSkipped++
			s.logf("polyfit-serve: skipping index %q: %v", name, err)
			continue
		}
		s.initRepl(e)
		s.mu.Lock()
		s.indexes[name] = e
		s.mu.Unlock()
		s.recovery.Indexes++
		if e.ins != nil {
			s.recovery.Dynamic++
		} else {
			s.recovery.Static++
		}
		s.recovery.ReplayedInserts += replayed
		s.recovery.SkippedInserts += skipped
		s.recovery.TornWALBytes += torn
	}
	s.recovery.Duration = time.Since(start)
	if len(names) > 0 {
		s.logf("polyfit-serve: %s", s.recovery)
	}
	return nil
}

func (s *Server) recoverIndex(name string) (e *entry, replayed, skipped int64, torn int, err error) {
	// A shard manifest marks the index as sharded: recover each shard's
	// snapshot+WAL pair independently and reassemble. A corrupt manifest
	// fails the whole index (the shard layout is unknowable without it).
	man, merr := s.store.ReadShardManifest(name)
	switch {
	case merr == nil:
		return s.recoverShardedIndex(name, man)
	case !errors.Is(merr, os.ErrNotExist):
		return nil, 0, 0, 0, fmt.Errorf("shard manifest: %w", merr)
	}
	blob, err := s.store.ReadSnapshot(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, 0, 0, fmt.Errorf("no snapshot: %w", err)
		}
		return nil, 0, 0, 0, err
	}
	e, err = entryFromBlob(blob)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("snapshot payload: %w", err)
	}
	if e.ins == nil {
		// Static indexes never log inserts; a WAL here would be a bug, not
		// data, so just report it.
		if _, statErr := s.store.FS().Stat(s.store.WALPath(name)); statErr == nil {
			s.logf("polyfit-serve: ignoring unexpected WAL for static index %q", name)
		}
		return e, 0, 0, 0, nil
	}
	wal, recs, dropped, err := s.store.OpenWAL(s.store.WALPath(name))
	if err != nil {
		if errors.Is(err, persist.ErrCorrupt) {
			// The log is unreadable; the snapshot is still consistent, so
			// recover to it, set the bad log aside, and start a fresh one.
			s.logf("polyfit-serve: WAL for %q is corrupt (%v); recovering to last snapshot", name, err)
			if err := s.store.SetAside(s.store.WALPath(name)); err != nil {
				return nil, 0, 0, 0, err
			}
			if wal, recs, dropped, err = s.store.OpenWAL(s.store.WALPath(name)); err != nil {
				return nil, 0, 0, 0, err
			}
		} else {
			return nil, 0, 0, 0, err
		}
	}
	replayed, skipped, err = replay(e.ins, recs)
	if err != nil {
		// A failure other than a duplicate would silently drop an
		// acknowledged, fsynced insert — refuse to serve the index instead.
		wal.Close() //nolint:errcheck
		return nil, 0, 0, 0, err
	}
	e.wal = wal
	e.replayed = replayed
	return e, replayed, skipped, dropped, nil
}

// recoverShardedIndex reconstitutes a sharded dynamic index: every shard's
// snapshot is loaded, the shards are reassembled around the manifest's
// routing bounds, and then each shard's WAL is replayed on top — records
// route back to their owning shard, and duplicates (a crash between a
// shard's snapshot and its log truncation) skip idempotently. Any
// unrecoverable shard fails the whole index: serving a sharded index with
// a hole in its key space would silently undercount.
func (s *Server) recoverShardedIndex(name string, man persist.ShardManifest) (e *entry, replayed, skipped int64, torn int, err error) {
	blobs := make([][]byte, man.Shards)
	for i := range blobs {
		if blobs[i], err = s.store.ReadShardSnapshot(name, i); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("shard %d snapshot: %w", i, err)
		}
	}
	sd, err := polyfit.Assemble(man.Bounds, blobs)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("assemble shards: %w", err)
	}
	ins, ok := sd.(polyfit.Inserter)
	if !ok {
		return nil, 0, 0, 0, fmt.Errorf("assemble shards: index is not insertable")
	}
	wals := make([]*persist.WAL, man.Shards)
	closeAll := func() {
		for _, w := range wals {
			if w != nil {
				w.Close() //nolint:errcheck
			}
		}
	}
	for i := range wals {
		wal, recs, dropped, werr := s.store.OpenWAL(s.store.ShardWALPath(name, i))
		if werr != nil {
			if !errors.Is(werr, persist.ErrCorrupt) {
				closeAll()
				return nil, 0, 0, 0, werr
			}
			// This shard's log is unreadable; its snapshot is still
			// consistent, so recover the shard to it, set the bad log
			// aside, and start a fresh one. The other shards' logs still
			// replay — shard recovery is independent.
			s.logf("polyfit-serve: WAL for %q shard %d is corrupt (%v); recovering shard to last snapshot", name, i, werr)
			if err := s.store.SetAside(s.store.ShardWALPath(name, i)); err != nil {
				closeAll()
				return nil, 0, 0, 0, err
			}
			if wal, recs, dropped, werr = s.store.OpenWAL(s.store.ShardWALPath(name, i)); werr != nil {
				closeAll()
				return nil, 0, 0, 0, werr
			}
		}
		wals[i] = wal
		torn += dropped
		n, dup, err := replay(ins, recs)
		if err != nil {
			closeAll()
			return nil, 0, 0, 0, fmt.Errorf("shard %d: %w", i, err)
		}
		replayed += n
		skipped += dup
	}
	e = newEntry(sd)
	e.shardWALs = wals
	e.replayed = replayed
	return e, replayed, skipped, torn, nil
}

// replay applies one WAL's records with a single InsertBatch, in log order.
// A duplicate is an acknowledged insert the snapshot already covers (a
// crash raced snapshot and truncation) and skips idempotently; any other
// rejection fails the replay.
func replay(ins polyfit.Inserter, recs []persist.Record) (replayed, skipped int64, err error) {
	keys, measures := make([]float64, len(recs)), make([]float64, len(recs))
	for i, r := range recs {
		keys[i], measures[i] = r.Key, r.Measure
	}
	for i, insErr := range ins.InsertBatch(keys, measures) {
		switch {
		case insErr == nil:
			replayed++
		case errors.Is(insErr, polyfit.ErrDuplicateKey):
			skipped++
		default:
			return 0, 0, fmt.Errorf("replay insert %g: %w", keys[i], insErr)
		}
	}
	return replayed, skipped, nil
}

// snapshotLoop periodically persists dirty dynamic indexes (those with WAL
// records not yet folded into a snapshot).
func (s *Server) snapshotLoop(interval time.Duration) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.snapshotDirty(); err != nil {
				s.logf("polyfit-serve: background snapshot: %v", err)
			}
		}
	}
}

// entryDirty reports whether the entry has acknowledged inserts not yet
// folded into a snapshot (in its WAL or any shard's WAL), or a forced
// snapshot pending.
func entryDirty(e *entry) bool {
	if e.wal == nil && len(e.shardWALs) == 0 {
		return false // static: never dirty
	}
	if e.forceSnap.Load() {
		return true
	}
	if e.wal != nil && e.wal.Records() > 0 {
		return true
	}
	for _, wal := range e.shardWALs {
		if wal != nil && wal.Records() > 0 {
			return true
		}
	}
	return false
}

func (s *Server) snapshotDirty() error {
	s.mu.RLock()
	dirty := make(map[string]*entry)
	for name, e := range s.indexes {
		if entryDirty(e) {
			dirty[name] = e
		}
	}
	s.mu.RUnlock()
	var firstErr error
	for name, e := range dirty {
		if err := s.snapshotEntry(name, e); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SnapshotAll synchronously snapshots every dirty index. No-op for
// in-memory servers.
func (s *Server) SnapshotAll() error {
	if s.store == nil {
		return nil
	}
	return s.snapshotDirty()
}

// snapshotEntry writes one index's snapshot and drops the WAL prefix it
// covers. The WAL size is read BEFORE marshalling: every record below that
// offset was applied to the in-memory index before it reached the log, so
// the snapshot (taken after) is guaranteed to contain it — records that
// race in later stay in the log and replay idempotently.
func (s *Server) snapshotEntry(name string, e *entry) error {
	if s.store == nil {
		return nil
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	// Re-check registry membership under snapMu: a concurrent DELETE or
	// restore may have retired this entry after it was collected, and
	// writing its snapshot now would resurrect the index on the next boot
	// (dropPersisted holds the same lock while removing the files).
	s.mu.RLock()
	current := s.indexes[name] == e
	s.mu.RUnlock()
	if !current {
		return nil
	}
	// Clear the force flag before reading the cut: a failure signalled
	// after this point re-sets it and the next cycle snapshots again.
	e.forceSnap.Store(false)
	// A degraded entry has acknowledged inserts that never reached the WAL
	// (the log was sick when they arrived). This snapshot covers them —
	// marshalling happens after they were applied — so on success the WAL
	// is RESET (rewritten empty, file handle reopened) rather than
	// prefix-truncated, and the degradation clears: the disk proved itself
	// writable again. While degraded, inserts skip the log, so no record
	// can race into the WAL between the cut and the reset.
	degraded := e.degraded.Load()
	persistFail := func(err error) error {
		e.forceSnap.Store(true)
		e.persistErrors.Add(1)
		s.persistErrors.Add(1)
		return err
	}
	if e.shd != nil {
		// Sharded: one snapshot + log-prefix drop per shard, each with its
		// own cut taken before its shard is marshalled — the same "applied
		// before logged, marshalled after" argument as below, per shard.
		for i := 0; i < e.shd.NumShards(); i++ {
			var cut int64
			if i < len(e.shardWALs) && e.shardWALs[i] != nil {
				cut = e.shardWALs[i].Size()
			}
			blob, err := e.shd.MarshalShard(i)
			if err != nil {
				return persistFail(fmt.Errorf("marshal %q shard %d: %w", name, i, err))
			}
			if err := s.store.WriteShardSnapshot(name, i, blob); err != nil {
				return persistFail(err)
			}
			if i < len(e.shardWALs) && e.shardWALs[i] != nil {
				if degraded {
					if err := e.shardWALs[i].Reset(); err != nil {
						return persistFail(fmt.Errorf("reset %q shard %d WAL: %w", name, i, err))
					}
				} else if err := s.truncateGated(name, e, i, e.shardWALs[i], cut); err != nil {
					return persistFail(err)
				}
			}
		}
		if degraded {
			e.degraded.Store(false)
			// The reset logs no longer carry the records this snapshot
			// absorbed; followers must re-join from it.
			s.bumpInstance(e)
			s.logf("polyfit-serve: %q healed: snapshot persisted the non-durable inserts and the WALs were reset", name)
		}
		e.snapshots.Add(1)
		e.lastSnapUnix.Store(time.Now().Unix())
		s.snapshotsWritten.Add(1)
		return nil
	}
	var cut int64
	if e.wal != nil {
		cut = e.wal.Size()
	}
	blob, err := e.ix.MarshalBinary()
	if err != nil {
		return persistFail(fmt.Errorf("marshal %q: %w", name, err))
	}
	if err := s.store.WriteSnapshot(name, blob); err != nil {
		return persistFail(err)
	}
	if e.wal != nil {
		if degraded {
			if err := e.wal.Reset(); err != nil {
				return persistFail(fmt.Errorf("reset %q WAL: %w", name, err))
			}
		} else if err := s.truncateGated(name, e, 0, e.wal, cut); err != nil {
			return persistFail(err)
		}
	}
	if degraded {
		e.degraded.Store(false)
		// The reset log no longer carries the records this snapshot
		// absorbed; followers must re-join from it.
		s.bumpInstance(e)
		s.logf("polyfit-serve: %q healed: snapshot persisted the non-durable inserts and the WAL was reset", name)
	}
	e.snapshots.Add(1)
	e.lastSnapUnix.Store(time.Now().Unix())
	s.snapshotsWritten.Add(1)
	return nil
}

// persistNew writes the initial durable state for a just-built entry:
// snapshot, and (for dynamic indexes) an empty WAL. Called with adminMu
// held, before the entry becomes visible in the registry.
func (s *Server) persistNew(name string, e *entry) error {
	if s.store == nil {
		return nil
	}
	if e.shd != nil {
		// Sharded dynamic: per-shard snapshots first, the manifest last (it
		// is the commit point recovery keys off), then one WAL per shard. A
		// crash before the manifest leaves orphan files that the next
		// create overwrites; the index was never acknowledged.
		k := e.shd.NumShards()
		for i := 0; i < k; i++ {
			blob, err := e.shd.MarshalShard(i)
			if err != nil {
				s.store.Remove(name) //nolint:errcheck
				return err
			}
			if err := s.store.WriteShardSnapshot(name, i, blob); err != nil {
				s.store.Remove(name) //nolint:errcheck
				return err
			}
		}
		if err := s.store.WriteShardManifest(name, persist.ShardManifest{Shards: k, Bounds: e.shd.Bounds()}); err != nil {
			s.store.Remove(name) //nolint:errcheck
			return err
		}
		wals := make([]*persist.WAL, k)
		for i := range wals {
			wal, err := s.openFreshWAL(s.store.ShardWALPath(name, i))
			if err != nil {
				for _, w := range wals {
					if w != nil {
						w.Close() //nolint:errcheck
					}
				}
				s.store.Remove(name) //nolint:errcheck
				return err
			}
			wals[i] = wal
		}
		e.shardWALs = wals
		e.snapshots.Add(1)
		e.lastSnapUnix.Store(time.Now().Unix())
		s.snapshotsWritten.Add(1)
		return nil
	}
	blob, err := e.ix.MarshalBinary()
	if err != nil {
		return err
	}
	if err := s.store.WriteSnapshot(name, blob); err != nil {
		return err
	}
	if e.ins != nil {
		wal, err := s.openFreshWAL(s.store.WALPath(name))
		if err != nil {
			s.store.Remove(name) //nolint:errcheck
			return err
		}
		e.wal = wal
	}
	e.snapshots.Add(1)
	e.lastSnapUnix.Store(time.Now().Unix())
	s.snapshotsWritten.Add(1)
	return nil
}

// openFreshWAL opens a WAL for a brand-new (created or restored) index and
// purges any records already sitting in the file: they belong to an
// earlier same-named index (e.g. one whose recovery was skipped as corrupt
// and whose name was then reused) and replaying them into the new index on
// the next boot would insert records it never acknowledged.
func (s *Server) openFreshWAL(path string) (*persist.WAL, error) {
	wal, stale, _, err := s.store.OpenWAL(path)
	if err != nil {
		return nil, err
	}
	if len(stale) > 0 {
		if err := wal.TruncateTo(wal.Size()); err != nil {
			wal.Close() //nolint:errcheck
			return nil, err
		}
	}
	return wal, nil
}

// dropPersisted tears down an entry's durable state. Called with adminMu
// held and the entry already removed from the registry; snapMu excludes an
// in-flight background snapshot of the same entry, whose membership check
// then fails, so the files cannot be re-created after removal.
func (s *Server) dropPersisted(name string, e *entry) error {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if e.wal != nil {
		e.wal.Close() //nolint:errcheck
	}
	for _, wal := range e.shardWALs {
		if wal != nil {
			wal.Close() //nolint:errcheck
		}
	}
	if s.store == nil {
		return nil
	}
	return s.store.Remove(name)
}

// Close stops the background snapshotter, takes a final snapshot of every
// dirty index, and releases WAL handles. The HTTP mux keeps answering
// queries but durability guarantees end here; Close is for graceful
// shutdown and tests. It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		// Refuse new requests from here on; callers wanting in-flight work
		// to finish first should Drain before Close.
		s.draining.Store(true)
		if s.follower != nil {
			s.follower.close()
		}
		if s.stop != nil {
			close(s.stop)
			<-s.done
		}
		err = s.SnapshotAll()
		s.mu.RLock()
		defer s.mu.RUnlock()
		for _, e := range s.indexes {
			if e.wal != nil {
				e.wal.Close() //nolint:errcheck
			}
			for _, wal := range e.shardWALs {
				if wal != nil {
					wal.Close() //nolint:errcheck
				}
			}
		}
	})
	return err
}

// RestoreRequest carries a previously marshalled blob (GET /marshal, or
// polyfit.Index.MarshalBinary) to load under a name.
type RestoreRequest struct {
	Blob string `json:"blob"` // base64 (std encoding)
}

// handleRestore implements POST /v1/indexes/{name}/restore: register the
// blob under the name, replacing any existing index. Dynamic blobs come
// back dynamic — buffer, options, and fallback included. With a data dir
// the blob is persisted (and any previous WAL dropped) before the request
// is acknowledged.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, errors.New("name is required"))
		return
	}
	var req RestoreRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	raw, err := base64.StdEncoding.DecodeString(req.Blob)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode blob: %w", err))
		return
	}
	e, err := entryFromBlob(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	s.mu.RLock()
	old := s.indexes[name]
	s.mu.RUnlock()
	if old != nil {
		// Exclude an in-flight background snapshot of the entry being
		// replaced, and hold the lock across the registry swap so no later
		// one can overwrite the restored snapshot (its membership check
		// fails once the swap is visible).
		old.snapMu.Lock()
		defer old.snapMu.Unlock()
	}
	if err := s.persistRestore(name, raw, e, old); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.initRepl(e)
	s.mu.Lock()
	s.indexes[name] = e
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.statsOf(name, e))
}

// persistRestore writes the durable state for a restore, new-state-first so
// a failure at any point never destroys the previous index: (1) the new
// durable form is written — the raw blob atomically replacing the plain
// snapshot, or (for a sharded dynamic restore) per-shard snapshots sealed
// by the manifest, which is the commit point recovery keys off; (2) the
// old logs (records of the replaced index) are emptied and closed, and
// stale files of the other kind are retired — manifest first, so recovery
// at any crash point sees either the complete old index or the complete
// new one; (3) fresh WALs are opened for a dynamic replacement. A crash
// inside the sequence recovers to whichever state's commit point is on
// disk, replaying any stale WAL records as idempotent duplicate skips.
func (s *Server) persistRestore(name string, raw []byte, e, old *entry) error {
	if s.store == nil {
		return nil
	}
	if e.shd != nil {
		return s.persistRestoreSharded(name, e, old)
	}
	if err := s.store.WriteSnapshot(name, raw); err != nil {
		return err
	}
	if err := retireOldLogs(old); err != nil {
		return err
	}
	// Drop sharded remains of a previous same-named index (manifest first:
	// once it is gone, recovery uses the plain snapshot just written).
	if err := s.store.RemoveShardFiles(name); err != nil {
		return err
	}
	walPath := s.store.WALPath(name)
	if e.ins != nil {
		// openFreshWAL purges anything that slipped into the file between
		// the truncate and the close above (or was left by an earlier
		// same-named index): those records belong to the replaced index,
		// not the restored one.
		wal, err := s.openFreshWAL(walPath)
		if err != nil {
			return err
		}
		e.wal = wal
	} else if err := s.store.FS().Remove(walPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	e.snapshots.Add(1)
	e.lastSnapUnix.Store(time.Now().Unix())
	s.snapshotsWritten.Add(1)
	return nil
}

// persistRestoreSharded is the sharded-dynamic arm of persistRestore. The
// ordering matters: (1) new shard snapshots; (2) retire every log that
// could replay stale records — the replaced entry's open handles, every
// on-disk shard WAL (a skipped-as-corrupt predecessor may have left some
// behind with no open handle), and the plain WAL; (3) only THEN the
// manifest, the commit point — so at no crash point can recovery follow
// the new manifest and find a dead index's records still in a log;
// (4) cleanup of the other kind's snapshot and stale higher-numbered
// shards; (5) fresh per-shard WALs.
func (s *Server) persistRestoreSharded(name string, e, old *entry) error {
	k := e.shd.NumShards()
	for i := 0; i < k; i++ {
		blob, err := e.shd.MarshalShard(i)
		if err != nil {
			return err
		}
		if err := s.store.WriteShardSnapshot(name, i, blob); err != nil {
			return err
		}
	}
	if err := retireOldLogs(old); err != nil {
		return err
	}
	if err := s.store.RemoveShardWALFiles(name); err != nil {
		return err
	}
	if err := s.store.FS().Remove(s.store.WALPath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := s.store.WriteShardManifest(name, persist.ShardManifest{Shards: k, Bounds: e.shd.Bounds()}); err != nil {
		return err
	}
	// Recovery now follows the manifest: drop the plain snapshot and any
	// shard snapshots beyond the new count.
	if err := s.store.FS().Remove(s.store.SnapshotPath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if err := s.store.RemoveShardFilesFrom(name, k); err != nil {
		return err
	}
	wals := make([]*persist.WAL, k)
	for i := range wals {
		wal, err := s.openFreshWAL(s.store.ShardWALPath(name, i))
		if err != nil {
			for _, w := range wals {
				if w != nil {
					w.Close() //nolint:errcheck
				}
			}
			return err
		}
		wals[i] = wal
	}
	e.shardWALs = wals
	e.snapshots.Add(1)
	e.lastSnapUnix.Store(time.Now().Unix())
	s.snapshotsWritten.Add(1)
	return nil
}

// retireOldLogs empties and closes the replaced entry's WAL handles (plain
// and per-shard) so their records can never replay over the restored
// state.
func retireOldLogs(old *entry) error {
	if old == nil {
		return nil
	}
	if old.wal != nil {
		if err := old.wal.TruncateTo(old.wal.Size()); err != nil {
			return err
		}
		old.wal.Close() //nolint:errcheck
	}
	for _, wal := range old.shardWALs {
		if wal == nil {
			continue
		}
		if err := wal.TruncateTo(wal.Size()); err != nil {
			return err
		}
		wal.Close() //nolint:errcheck
	}
	return nil
}

// ServerStats are the global durability counters exposed at GET /v1/stats.
type ServerStats struct {
	Indexes            int    `json:"indexes"`
	ShardedIndexes     int    `json:"sharded_indexes,omitempty"`
	TotalShards        int    `json:"total_shards,omitempty"` // across sharded indexes
	Durable            bool   `json:"durable"`
	DataDir            string `json:"data_dir,omitempty"`
	SnapshotsWritten   int64  `json:"snapshots_written"`
	WALAppendedRecords int64  `json:"wal_appended_records"`
	RecoveredIndexes   int    `json:"recovered_indexes"`
	ReplayedInserts    int64  `json:"replayed_inserts"`
	CorruptSkipped     int    `json:"corrupt_skipped,omitempty"`
	TornWALBytes       int    `json:"torn_wal_bytes,omitempty"`

	// Request-lifecycle counters (admission control, deadlines, panic
	// recovery — see admission.go). InFlight/QueuedQueries are
	// point-in-time gauges; the rest are cumulative. TimedOutQueries
	// counts genuine deadline expiries (504); CanceledQueries counts
	// client disconnects (499) — kept apart so disconnect storms don't
	// masquerade as serving latency. ExecutedQueries counts the point
	// queries and batch requests that were admitted and handed to the
	// index, one per request: shed requests and those whose context died
	// while queued never move it.
	InFlight        int64 `json:"in_flight"`
	QueuedQueries   int64 `json:"queued_queries"`
	ShedQueries     int64 `json:"shed_queries"`
	TimedOutQueries int64 `json:"timed_out_queries"`
	CanceledQueries int64 `json:"canceled_queries"`
	ExecutedQueries int64 `json:"executed_queries"`
	PanicsRecovered int64 `json:"panics_recovered"`

	// Degradation counters: indexes currently serving with a sick WAL, the
	// total failed persistence operations, and inserts acknowledged
	// without the durability guarantee.
	DegradedIndexes   int   `json:"degraded_indexes"`
	PersistErrors     int64 `json:"persist_errors"`
	NonDurableInserts int64 `json:"non_durable_inserts"`

	// PerIndexShards maps each sharded index to its per-shard stats rows,
	// so one /v1/stats round trip shows the whole shard fleet.
	PerIndexShards map[string][]ShardStats `json:"per_index_shards,omitempty"`

	// Replication (see replication.go / follower.go). Role is "leader"
	// (the default, even with no followers attached) or "follower".
	// Leaders list every follower's acknowledged watermark; followers
	// report the leader they stream from, how stale their reads may be
	// (milliseconds since the last fully-caught-up poll), the sequence
	// vector they have applied per index, and their join/apply counters.
	Role          string             `json:"role"`
	Leader        string             `json:"leader,omitempty"`
	StalenessMS   int64              `json:"staleness_ms,omitempty"`
	AckWatermark  map[string][]int64 `json:"ack_watermark,omitempty"`
	Followers     []FollowerStat     `json:"followers,omitempty"`
	SnapshotSyncs int64              `json:"snapshot_syncs,omitempty"`
	ReplApplied   int64              `json:"repl_applied_records,omitempty"`
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.indexes)
	type shardedIx struct {
		name string
		e    *entry
	}
	var sharded []shardedIx
	degradedIndexes := 0
	for name, e := range s.indexes {
		if _, ok := e.ix.(polyfit.Sharder); ok {
			sharded = append(sharded, shardedIx{name, e})
		}
		if e.degraded.Load() {
			degradedIndexes++
		}
	}
	s.mu.RUnlock()
	st := ServerStats{
		Indexes:            n,
		Durable:            s.store != nil,
		SnapshotsWritten:   s.snapshotsWritten.Load(),
		WALAppendedRecords: s.walAppended.Load(),
		RecoveredIndexes:   s.recovery.Indexes,
		ReplayedInserts:    s.recovery.ReplayedInserts,
		CorruptSkipped:     s.recovery.CorruptSkipped,
		TornWALBytes:       s.recovery.TornWALBytes,
		InFlight:           s.httpInFlight.Load(),
		QueuedQueries:      s.adm.queued.Load(),
		ShedQueries:        s.adm.shed.Load(),
		TimedOutQueries:    s.timedOut.Load(),
		CanceledQueries:    s.canceled.Load(),
		ExecutedQueries:    s.executed.Load(),
		PanicsRecovered:    s.panics.Load(),
		DegradedIndexes:    degradedIndexes,
		PersistErrors:      s.persistErrors.Load(),
		NonDurableInserts:  s.nonDurableIns.Load(),
		Role:               "leader",
	}
	if s.follower != nil {
		st.Role = "follower"
		st.Leader = s.follower.leader
		st.StalenessMS = s.follower.stalenessMS()
		st.AckWatermark = s.follower.watermark()
		st.SnapshotSyncs = s.follower.synced.Load()
		st.ReplApplied = s.follower.applied.Load()
	} else {
		st.Followers = s.acks.stats(s.followerTTL)
	}
	for _, sx := range sharded {
		rows := s.statsOf(sx.name, sx.e).ShardStats
		st.ShardedIndexes++
		st.TotalShards += len(rows)
		if st.PerIndexShards == nil {
			st.PerIndexShards = make(map[string][]ShardStats, len(sharded))
		}
		st.PerIndexShards[sx.name] = rows
	}
	if s.store != nil {
		st.DataDir = s.store.Dir()
	}
	writeJSON(w, http.StatusOK, st)
}

// entryFromBlob restores a blob through polyfit.Open, which sniffs the
// magic and returns the right variant behind the uniform Index interface —
// dynamic blobs come back insertable with their delta buffer and options
// intact, sharded ones with their per-shard capabilities.
func entryFromBlob(raw []byte) (*entry, error) {
	if polyfit.DetectBlob(raw) == polyfit.BlobStatic2D {
		return nil, errors.New("2D index blobs are not servable (no range endpoint)")
	}
	ix, err := polyfit.Open(raw)
	if err != nil {
		return nil, err
	}
	return newEntry(ix), nil
}
