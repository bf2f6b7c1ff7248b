package server

// Follower mode: a server started with Config.Join mirrors the leader's
// registry in memory and serves reads from it at a reported staleness.
// The sync loop is the only writer of a follower's registry — client
// writes are rejected with 409 + X-Polyfit-Leader (see
// rejectFollowerWrite) — so the replica's state is a pure function of
// the leader's snapshot + WAL stream:
//
//  1. Poll the leader's status; drop local indexes the leader no longer
//     has, and (re)join any index whose (epoch, instance) coordinates
//     changed by fetching its snapshot. Snapshot restore is bit-identical
//     (no re-fitting), so the replica starts from exactly the leader's
//     marshalled state.
//  2. For every dynamic index, long-poll the WAL tail from the local
//     cursor and apply the records in stream order. The cursor doubles as
//     the acknowledgement the leader's truncation gating keys on.
//     Duplicate keys (a snapshot that already covered part of the tail)
//     are skipped idempotently.
//  3. When every stream has reached the leader's end sequence, stamp the
//     caught-up clock — staleness_ms in /v1/stats and the router's
//     staleness gate both derive from it.
//
// Because dynamic-index state is a deterministic function of the restored
// snapshot and the applied record sequence (merge-rebuilds trigger at a
// count threshold and re-fit deterministically), a follower that has
// acknowledged sequence s answers queries bitwise-identically to the
// leader at s — the property the cluster crashtest asserts.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// follower runs a server's replication client. Created by NewDurable when
// Config.Join is set.
type follower struct {
	s      *Server
	leader string
	id     string
	client *cluster.Client
	poll   time.Duration // idle delay between sync cycles
	wait   time.Duration // long-poll budget requested per tail

	stop   chan struct{}
	done   chan struct{}
	cancel context.CancelFunc

	mu      sync.Mutex
	cursors map[string]*replCursor // guarded by mu

	caughtUpNano atomic.Int64 // when every stream last reached the leader's end
	synced       atomic.Int64 // snapshot (re)joins
	applied      atomic.Int64 // records applied from tails
	lastErr      atomic.Value // string: most recent sync error
}

// replCursor is the follower's position in one index's streams.
type replCursor struct {
	epoch    int64
	instance uint64
	seqs     []int64
}

func newFollower(s *Server, cfg Config) *follower {
	f := &follower{
		s:       s,
		leader:  cfg.Join,
		id:      cfg.Advertise,
		client:  &cluster.Client{Base: cfg.Join},
		poll:    cfg.ReplPollInterval,
		wait:    cfg.ReplWait,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		cursors: make(map[string]*replCursor),
	}
	if f.id == "" {
		f.id = fmt.Sprintf("follower-%d", time.Now().UnixNano())
	}
	if f.poll <= 0 {
		f.poll = 25 * time.Millisecond
	}
	if f.wait <= 0 {
		f.wait = 200 * time.Millisecond
	}
	return f
}

// stalenessMS reports how many milliseconds ago the follower was last
// fully caught up (a very large number before the first catch-up).
func (f *follower) stalenessMS() int64 {
	at := f.caughtUpNano.Load()
	if at == 0 {
		return time.Now().UnixMilli() // never caught up: effectively infinite
	}
	ms := (time.Now().UnixNano() - at) / int64(time.Millisecond)
	if ms < 0 {
		ms = 0
	}
	return ms
}

// watermark returns the follower's applied sequence vector per index.
func (f *follower) watermark() map[string][]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string][]int64, len(f.cursors))
	for name, c := range f.cursors {
		out[name] = append([]int64(nil), c.seqs...)
	}
	return out
}

func (f *follower) setCursor(name string, c *replCursor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cursors[name] = c
}

func (f *follower) dropCursor(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.cursors, name)
}

func (f *follower) cursor(name string) *replCursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursors[name]
}

// run is the sync loop. It exits when close() fires.
func (f *follower) run() {
	defer close(f.done)
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() {
		<-f.stop
		cancel()
	}()
	errStreak := 0
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		progressed, err := f.syncOnce(ctx)
		switch {
		case err != nil && ctx.Err() != nil:
			return
		case err != nil:
			errStreak++
			f.lastErr.Store(err.Error())
			f.s.logf("polyfit-serve: follower sync: %v", err)
			// Back off while the leader is unreachable, but stay eager
			// enough to rejoin within a restart's health-check window.
			delay := time.Duration(errStreak) * 50 * time.Millisecond
			if delay > time.Second {
				delay = time.Second
			}
			f.sleep(delay)
		case !progressed:
			errStreak = 0
			f.sleep(f.poll)
		default:
			errStreak = 0
		}
	}
}

func (f *follower) sleep(d time.Duration) {
	select {
	case <-f.stop:
	case <-time.After(d):
	}
}

func (f *follower) close() {
	close(f.stop)
	<-f.done
}

// syncOnce runs one reconcile + tail cycle. progressed reports whether
// any snapshot was fetched or record applied (the caller idles briefly
// when nothing moved — the long poll inside Tail does the real waiting).
func (f *follower) syncOnce(ctx context.Context) (progressed bool, err error) {
	st, err := f.client.Status(ctx)
	if err != nil {
		return false, fmt.Errorf("leader status: %w", err)
	}
	// Drop indexes the leader deleted.
	want := make(map[string]bool, len(st.Indexes))
	for _, ix := range st.Indexes {
		want[ix.Name] = true
	}
	f.s.mu.RLock()
	var stale []string
	for name := range f.s.indexes {
		if !want[name] {
			stale = append(stale, name)
		}
	}
	f.s.mu.RUnlock()
	for _, name := range stale {
		f.removeLocal(name)
		progressed = true
	}
	allCaughtUp := true
	for _, ix := range st.Indexes {
		cur := f.cursor(ix.Name)
		if cur == nil || cur.epoch != st.Epoch || cur.instance != ix.Instance {
			if err := f.resync(ctx, ix.Name); err != nil {
				return progressed, err
			}
			progressed = true
			cur = f.cursor(ix.Name)
		}
		if len(cur.seqs) == 0 {
			continue // static or snapshot-only: nothing to stream
		}
		applied, caughtUp, err := f.pollTail(ctx, ix.Name, cur)
		if errors.Is(err, cluster.ErrResync) {
			if err := f.resync(ctx, ix.Name); err != nil {
				return progressed, err
			}
			progressed = true
			continue
		}
		if err != nil {
			return progressed, err
		}
		if applied > 0 {
			progressed = true
		}
		if !caughtUp {
			allCaughtUp = false
		}
	}
	if allCaughtUp {
		f.caughtUpNano.Store(time.Now().UnixNano())
	}
	return progressed, nil
}

// resync (re)joins one index: fetch the leader's snapshot, restore it,
// and swap it into the local registry. The snapshot's sequence vector
// becomes the new cursor — the blob is guaranteed to contain every
// record below it, and anything at or above replays idempotently.
func (f *follower) resync(ctx context.Context, name string) error {
	snap, err := f.client.Snapshot(ctx, name)
	if err != nil {
		return fmt.Errorf("join %q: %w", name, err)
	}
	e, err := entryFromBlob(snap.Blob)
	if err != nil {
		return fmt.Errorf("join %q: restore snapshot: %w", name, err)
	}
	f.s.adminMu.Lock()
	f.s.mu.Lock()
	f.s.indexes[name] = e
	f.s.mu.Unlock()
	f.s.adminMu.Unlock()
	f.setCursor(name, &replCursor{
		epoch:    snap.Epoch,
		instance: snap.Instance,
		seqs:     append([]int64(nil), snap.Seqs...),
	})
	f.synced.Add(1)
	f.s.logf("polyfit-serve: follower joined %q at seqs %s (instance %d)",
		name, cluster.FormatSeqs(snap.Seqs), snap.Instance)
	return nil
}

// removeLocal drops a replicated index the leader no longer serves.
func (f *follower) removeLocal(name string) {
	f.s.adminMu.Lock()
	f.s.mu.Lock()
	delete(f.s.indexes, name)
	f.s.mu.Unlock()
	f.s.adminMu.Unlock()
	f.dropCursor(name)
}

// pollTail long-polls one index's WAL tails and applies what arrives, in
// stream order. Returns how many records were applied and whether every
// stream reached the leader's end.
func (f *follower) pollTail(ctx context.Context, name string, cur *replCursor) (applied int64, caughtUp bool, err error) {
	tail, err := f.client.Tail(ctx, name, f.id, cur.epoch, cur.instance, cur.seqs, f.wait)
	if err != nil {
		return 0, false, err
	}
	f.s.mu.RLock()
	e := f.s.indexes[name]
	f.s.mu.RUnlock()
	if e == nil || e.ins == nil {
		// The local entry vanished mid-poll (leader dropped it and the
		// next status cycle will reconcile); nothing to apply onto.
		return 0, true, nil
	}
	next := append([]int64(nil), cur.seqs...)
	for _, frame := range tail.Frames {
		if frame.Log >= len(next) || frame.From != next[frame.Log] {
			return applied, false, fmt.Errorf("%w: frame for %q stream %d starts at %d, cursor at %v",
				cluster.ErrResync, name, frame.Log, frame.From, cur.seqs)
		}
		// One batch per frame; a duplicate is a record the snapshot
		// already covered. Anything else forks the replica from the
		// leader; rejoin from a fresh snapshot instead of serving diverged
		// state.
		if _, _, err := replay(e.ins, frame.Records); err != nil {
			return applied, false, fmt.Errorf("%w: apply %q: %v", cluster.ErrResync, name, err)
		}
		applied += int64(len(frame.Records))
		next[frame.Log] += int64(len(frame.Records))
	}
	caughtUp = true
	for _, frame := range tail.Frames {
		if next[frame.Log] < frame.End {
			caughtUp = false
		}
	}
	f.setCursor(name, &replCursor{epoch: cur.epoch, instance: cur.instance, seqs: next})
	f.applied.Add(applied)
	return applied, caughtUp, nil
}
