package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/persist"
	"repro/internal/server"
)

var errInner = errors.New("inner failure")

// TestTimingTransportReturnsInnerError checks that a traced round trip
// hands back the wrapped transport's error itself, root or not.
func TestTimingTransportReturnsInnerError(t *testing.T) {
	var stamped string
	inner := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		stamped = r.Header.Get(spanHeader)
		return nil, errInner
	})
	tr := newTracer()
	for _, root := range []bool{true, false} {
		rt := &timingTransport{inner: inner, tr: tr, root: root}
		ctx := withTag(context.WithValue(context.Background(), spanKey{}, uint64(7)), 5)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, "http://127.0.0.1/v1/indexes/a/query", nil)
		if _, err := rt.RoundTrip(req); err != errInner {
			t.Errorf("root=%v: error %v, want the inner error unchanged", root, err)
		}
		if stamped == "" {
			t.Errorf("root=%v: no span id stamped", root)
		}
		if req.Header.Get(spanHeader) != "" {
			t.Errorf("root=%v: the caller's request was modified", root)
		}
	}
	if n := len(tr.take()); n != 2 {
		t.Errorf("%d spans recorded for two failed round trips, want 2", n)
	}
}

// TestTracedHandlerParents checks that the handler span takes the stamped
// parent and hands its own id down in the context.
func TestTracedHandlerParents(t *testing.T) {
	tr := newTracer()
	var seen uint64
	h := traced(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) { seen = spanFrom(r.Context()) }), tr, "server", nil)
	req, _ := http.NewRequest(http.MethodPost, "http://127.0.0.1/v1/indexes/a/batch", nil)
	req.Header.Set(spanHeader, strconv.Itoa(41))
	h.ServeHTTP(nil, req)
	spans := tr.take()
	if len(spans) != 1 || spans[0].parent != 41 || spans[0].id != seen || spans[0].name != "batch" {
		t.Errorf("spans %+v, context span %d", spans, seen)
	}
}

// failFS fails every call the timing FS times.
type failFS struct{ persist.FS }

func (failFS) CreateTemp(string, string) (persist.File, error)         { return nil, errInner }
func (failFS) OpenFile(string, int, os.FileMode) (persist.File, error) { return failFile{}, nil }
func (failFS) Rename(string, string) error                             { return errInner }
func (failFS) Stat(string) (os.FileInfo, error)                        { return nil, errInner }

type failFile struct{ persist.File }

func (failFile) Write([]byte) (int, error) { return 0, errInner }
func (failFile) Sync() error               { return errInner }

// TestTimingFSReturnsInnerErrors checks that the timing FS hands back the
// wrapped calls' errors unchanged, traced or not, and that a crashed FS
// refuses mutations.
func TestTimingFSReturnsInnerErrors(t *testing.T) {
	for _, tr := range []*tracer{nil, newTracer()} {
		var inflight atomic.Uint64
		inflight.Store(3)
		fs := newTimingFS(tr, &inflight)
		fs.FS = failFS{}
		if _, err := fs.CreateTemp("d", ".tmp-*"); err != errInner {
			t.Errorf("CreateTemp: %v", err)
		}
		if err := fs.Rename("a", "b"); err != errInner {
			t.Errorf("Rename: %v", err)
		}
		f, err := fs.OpenFile("wal", os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("x")); err != errInner {
			t.Errorf("Write: %v", err)
		}
		if err := f.Sync(); err != errInner {
			t.Errorf("Sync: %v", err)
		}
		if err := fs.crash(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte("x")); err != errCrashed {
			t.Errorf("crashed Write: %v", err)
		}
		if err := fs.MkdirAll("d", 0o755); err != errCrashed {
			t.Errorf("crashed MkdirAll: %v", err)
		}
		if tr != nil {
			for _, s := range tr.take() {
				if s.parent != 3 || s.peer != "wal" {
					t.Errorf("WAL span %+v not parented on the in-flight insert", s)
				}
			}
		}
	}
}

// TestCrashCutsUnsyncedBytes writes through the timing FS to the real disk
// and crashes it: each file keeps exactly its bytes up to its last Sync,
// and a renamed file keeps its own synced length.
func TestCrashCutsUnsyncedBytes(t *testing.T) {
	dir := t.TempDir()
	fs := newTimingFS(nil, new(atomic.Uint64))
	wal := filepath.Join(dir, "wal")
	f, err := fs.OpenFile(wal, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, "synced")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, f, "-lost")
	tmp, err := fs.CreateTemp(dir, ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, tmp, "never synced")
	if err := fs.Rename(tmp.Name(), filepath.Join(dir, "snap")); err != nil {
		t.Fatal(err)
	}
	if err := fs.crash(); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{wal: "synced", filepath.Join(dir, "snap"): ""} {
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s after the crash: %q, %v; want %q", filepath.Base(path), got, err, want)
		}
	}
	f.Close()
	tmp.Close()
}

func mustWrite(t *testing.T, f persist.File, s string) {
	t.Helper()
	if _, err := f.Write([]byte(s)); err != nil {
		t.Fatal(err)
	}
}

// dropSyncFS hands out WAL files whose Sync does nothing: a persistence
// layer that acknowledges inserts it never fsynced.
type dropSyncFS struct{ *timingFS }

func (d dropSyncFS) OpenFile(path string, flag int, perm os.FileMode) (persist.File, error) {
	f, err := d.timingFS.OpenFile(path, flag, perm)
	if err != nil {
		return f, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ persist.File }

func (noSyncFile) Sync() error { return nil }

// TestCrashLosesUnsyncedInserts acknowledges durable inserts on a server
// over the timing FS, crashes the FS and reopens the data dir, as the
// ingest workload does. With every WAL Sync made, every acknowledged
// record comes back; with the WAL's Syncs dropped, the crash loses them,
// and the benchmark would count them as lost inserts.
func TestCrashLosesUnsyncedInserts(t *testing.T) {
	base := make([]float64, 1000)
	for i := range base {
		base[i] = float64(i)
	}
	for _, drop := range []bool{false, true} {
		dir := t.TempDir()
		tfs := newTimingFS(nil, new(atomic.Uint64))
		var fsys persist.FS = tfs
		if drop {
			fsys = dropSyncFS{tfs}
		}
		srv, err := server.NewDurable(server.Config{DataDir: dir, FS: fsys, SnapshotInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Create(server.CreateRequest{Name: "t", Agg: "count", Dynamic: true, Keys: base, EpsAbs: 10}); err != nil {
			t.Fatal(err)
		}
		acked := 0
		for b := 0; b < 5; b++ {
			body := insertBody([]float64{1000.5 + float64(2*b), 1001.5 + float64(2*b)})
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/indexes/t/insert", bytes.NewReader(body)))
			var resp server.InsertResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || !resp.Durable {
				t.Fatalf("drop=%v: insert answered %d %s", drop, rec.Code, rec.Body)
			}
			acked += resp.Inserted
		}
		if err := tfs.crash(); err != nil {
			t.Fatal(err)
		}
		re, err := server.NewDurable(server.Config{DataDir: dir, SnapshotInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		re.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/indexes/t", nil))
		var st indexStats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("drop=%v: %d %s", drop, rec.Code, rec.Body)
		}
		want := len(base) + acked
		if !drop && st.Records != want {
			t.Errorf("%d records after the crash, want the %d acknowledged", st.Records, want)
		}
		if drop && st.Records >= want {
			t.Errorf("WAL syncs dropped: %d records after the crash, want fewer than the %d acknowledged", st.Records, want)
		}
		if err := re.Close(); err != nil {
			t.Error(err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 1, start: 20, end: 50},
		{id: 4, parent: 1, start: 90, end: 120}, // clipped to the parent
		{id: 5, parent: 2, start: 12, end: 14},
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 18 || self[4] != 30 {
		t.Errorf("self times %v, want 1:50 2:18 4:30", self)
	}
}
