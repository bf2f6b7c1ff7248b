package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
)

// Tracing records one span per call across a layer boundary, all from the
// benchmark's own wrappers around each layer's exported entry points. A nil
// *tracer disables recording; the wrappers then pass calls straight through.
// Spans stay in memory and are analysed when the run ends.

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	id, parent uint64
	layer      string // http, server, cluster, persist
	name       string // query, batch, insert, attempt, sync, write, snapshot, ...
	peer       string // attempts: the replica's role; persist calls: wal or temp
	tag        int64  // the load generator's operation number, for root spans
	bytes      int64  // persist writes: bytes written
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

type tracer struct {
	t0     time.Time
	ids    atomic.Uint64
	paused atomic.Bool // set while phases that are not traced run
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}
func (t *tracer) newID() uint64 { return t.ids.Add(1) }
func (t *tracer) record(s span) { t.mu.Lock(); t.spans = append(t.spans, s); t.mu.Unlock() }
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}
func (t *tracer) enabled() bool { return t != nil && !t.paused.Load() }

// spanHeader carries the parent span id across a loopback HTTP hop.
const spanHeader = "X-Perfbench-Span"

type spanKey struct{}
type tagKey struct{}

func spanFrom(ctx context.Context) uint64 { v, _ := ctx.Value(spanKey{}).(uint64); return v }

// withTag marks a client request with the load generator's operation
// number, which the root span records.
func withTag(ctx context.Context, tag int64) context.Context {
	return context.WithValue(ctx, tagKey{}, tag)
}

// opOf names the data-plane operation a request path addresses.
func opOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/query"):
		return "query"
	case strings.HasSuffix(path, "/batch"):
		return "batch"
	case strings.HasSuffix(path, "/insert"):
		return "insert"
	}
	return "other"
}

// timingTransport times round trips. As the client's transport (root) a
// request the load generator tagged opens a root span; as the router's
// upstream transport it times only attempts made on behalf of a traced
// request. Either way it stamps the span id into spanHeader for the
// receiving handler. The span ends when the response body is closed.
type timingTransport struct {
	inner http.RoundTripper
	tr    *tracer
	root  bool
	peers map[string]string // host → replica role
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	tag, tagged := req.Context().Value(tagKey{}).(int64)
	if !t.tr.enabled() || (t.root && !tagged) || (!t.root && parent == 0) {
		return t.inner.RoundTrip(req)
	}
	s := span{id: t.tr.newID(), parent: parent, layer: "http", name: opOf(req.URL.Path), peer: t.peers[req.URL.Host], tag: tag}
	if !t.root {
		s.name = "attempt"
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(s.id, 10))
	s.start = t.tr.now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		s.end = t.tr.now()
		t.tr.record(s)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.s.end = b.tr.now(); b.tr.record(b.s) })
	return err
}

// tracedHandler times a server's or router's ServeHTTP for traced requests,
// those carrying the caller's stamped span, and passes its own span id
// down in the request context, where the router's upstream attempts find
// it. Insert spans are published in inflight so the timing FS can parent
// WAL calls on them.
type tracedHandler struct {
	h        http.Handler
	tr       *tracer
	layer    string
	inflight *atomic.Uint64
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	if !th.tr.enabled() || parent == 0 {
		th.h.ServeHTTP(w, r)
		return
	}
	s := span{id: th.tr.newID(), parent: parent, layer: th.layer, name: opOf(r.URL.Path)}
	if s.name == "insert" {
		th.inflight.Store(s.id)
		defer th.inflight.Store(0)
	}
	s.start = th.tr.now()
	th.h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.id)))
	s.end = th.tr.now()
	th.tr.record(s)
}

// traced wraps h on traced runs. inflight may be nil when nothing reads
// the in-flight insert.
func traced(h http.Handler, tr *tracer, layer string, inflight *atomic.Uint64) http.Handler {
	if tr == nil {
		return h
	}
	if inflight == nil {
		inflight = new(atomic.Uint64)
	}
	return &tracedHandler{h: h, tr: tr, layer: layer, inflight: inflight}
}

// errCrashed is what a crashed timingFS answers to every mutation: the
// server above it has been abandoned, as if its process had died.
var errCrashed = errors.New("perfbench: data dir abandoned")

// timingFS is the leader's persist.FS. It times Write and Sync on the WAL
// as children of the in-flight insert, and each snapshot or WAL rewrite
// (temp file through rename) as a span of its own. It also keeps, for the
// file at each path it wrote, how many of its bytes were fsynced, so that
// crash can drop the rest as a power loss would.
type timingFS struct {
	persist.FS
	tr       *tracer
	inflight *atomic.Uint64
	// gate is held shared by every mutation and exclusively by crash, so
	// that no write lands after the crash has cut the files.
	gate    sync.RWMutex
	crashed bool // guarded by gate
	mu      sync.Mutex
	temps   map[string]span        // guarded by mu: open temp files' spans by path
	files   map[string]*timingFile // guarded by mu: the file last written at each path
}

func newTimingFS(tr *tracer, inflight *atomic.Uint64) *timingFS {
	return &timingFS{FS: persist.OSFS(), tr: tr, inflight: inflight, temps: make(map[string]span), files: make(map[string]*timingFile)}
}

// mutate runs a mutation unless the FS has crashed.
func (f *timingFS) mutate(op func() error) error {
	f.gate.RLock()
	defer f.gate.RUnlock()
	if f.crashed {
		return errCrashed
	}
	return op()
}

// crash abandons the data dir as a power loss would: every later mutation
// fails with errCrashed, and every file loses the bytes written after its
// last successful Sync. A rename counts as durable once made; directory
// syncs are not modelled.
func (f *timingFS) crash() error {
	f.gate.Lock()
	defer f.gate.Unlock()
	f.crashed = true
	f.mu.Lock()
	defer f.mu.Unlock()
	var errs []error
	for path, tf := range f.files {
		if tf.size > tf.synced {
			if err := f.FS.Truncate(path, tf.synced); err != nil && !errors.Is(err, os.ErrNotExist) {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// track makes tf the file at path. Bytes already there count as synced,
// unless they are an earlier tracked file's unsynced ones.
func (f *timingFS) track(path string, tf *timingFile, size int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	tf.size, tf.synced = size, size
	if prev, ok := f.files[path]; ok {
		tf.synced = min(size, prev.synced)
	}
	f.files[path] = tf
}

func (f *timingFS) CreateTemp(dir, pattern string) (persist.File, error) {
	var tf *timingFile
	err := f.mutate(func() error {
		fl, err := f.FS.CreateTemp(dir, pattern)
		if err != nil {
			return err
		}
		tf = &timingFile{File: fl, fs: f}
		f.track(fl.Name(), tf, 0)
		if f.tr.enabled() {
			s := span{id: f.tr.newID(), layer: "persist", start: f.tr.now()}
			f.mu.Lock()
			f.temps[fl.Name()] = s
			f.mu.Unlock()
			tf.parent = s.id
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tf, nil
}

func (f *timingFS) OpenFile(path string, flag int, perm os.FileMode) (persist.File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) == 0 {
		return f.FS.OpenFile(path, flag, perm)
	}
	var tf *timingFile
	err := f.mutate(func() error {
		fl, err := f.FS.OpenFile(path, flag, perm)
		if err != nil {
			return err
		}
		size := int64(0)
		if st, err := f.FS.Stat(path); err == nil && flag&os.O_TRUNC == 0 {
			size = st.Size()
		}
		tf = &timingFile{File: fl, fs: f, wal: true}
		f.track(path, tf, size)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tf, nil
}

func (f *timingFS) Rename(oldPath, newPath string) error {
	return f.mutate(func() error {
		start := f.tr.now()
		if err := f.FS.Rename(oldPath, newPath); err != nil {
			return err
		}
		f.mu.Lock()
		if tf, ok := f.files[oldPath]; ok {
			f.files[newPath] = tf
		} else {
			delete(f.files, newPath)
		}
		delete(f.files, oldPath)
		s, ok := f.temps[oldPath]
		delete(f.temps, oldPath)
		f.mu.Unlock()
		if ok && f.tr.enabled() {
			s.name = "snapshot"
			if strings.Contains(filepath.Base(newPath), "wal") {
				s.name = "wal_rewrite"
			}
			s.end = f.tr.now()
			f.tr.record(s)
			f.tr.record(span{id: f.tr.newID(), parent: s.id, layer: "persist", name: "rename", start: start, end: s.end})
		}
		return nil
	})
}

func (f *timingFS) MkdirAll(path string, perm os.FileMode) error {
	return f.mutate(func() error { return f.FS.MkdirAll(path, perm) })
}

func (f *timingFS) Remove(path string) error {
	return f.mutate(func() error {
		f.forget(path)
		return f.FS.Remove(path)
	})
}

func (f *timingFS) RemoveAll(path string) error {
	return f.mutate(func() error {
		f.forget(path)
		return f.FS.RemoveAll(path)
	})
}

// forget stops tracking path and every file under it.
func (f *timingFS) forget(path string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for p := range f.files {
		if p == path || strings.HasPrefix(p, path+string(filepath.Separator)) {
			delete(f.files, p)
		}
	}
}

func (f *timingFS) Truncate(path string, size int64) error {
	return f.mutate(func() error {
		if err := f.FS.Truncate(path, size); err != nil {
			return err
		}
		f.mu.Lock()
		if tf, ok := f.files[path]; ok {
			tf.size, tf.synced = size, min(tf.synced, size)
		}
		f.mu.Unlock()
		return nil
	})
}

func (f *timingFS) SyncDir(dir string) error {
	return f.mutate(func() error { return f.FS.SyncDir(dir) })
}

// timingFile times Write and Sync and counts the bytes written and synced.
// WAL calls are parented on the in-flight insert; temp-file calls on their
// snapshot span. size and synced are only touched with the owning FS's mu
// held (a cross-struct guard the lockguard annotation grammar cannot name).
type timingFile struct {
	persist.File
	fs           *timingFS
	wal          bool
	parent       uint64
	size, synced int64
}

func (t *timingFile) op(name string, n int64, start int64) {
	parent := t.parent
	if t.wal {
		parent = t.fs.inflight.Load()
	}
	t.fs.tr.record(span{id: t.fs.tr.newID(), parent: parent, layer: "persist", name: name, peer: kindOf(t.wal), bytes: n, start: start, end: t.fs.tr.now()})
}

func kindOf(wal bool) string {
	if wal {
		return "wal"
	}
	return "temp"
}

func (t *timingFile) Write(p []byte) (int, error) {
	var n int
	err := t.fs.mutate(func() error {
		start := t.fs.tr.now()
		var err error
		n, err = t.File.Write(p)
		t.fs.mu.Lock()
		t.size += int64(n)
		t.fs.mu.Unlock()
		if t.fs.tr.enabled() {
			t.op("write", int64(n), start)
		}
		return err
	})
	return n, err
}

func (t *timingFile) Sync() error {
	return t.fs.mutate(func() error {
		start := t.fs.tr.now()
		t.fs.mu.Lock()
		size := t.size
		t.fs.mu.Unlock()
		err := t.File.Sync()
		if err == nil {
			t.fs.mu.Lock()
			t.synced = max(t.synced, size)
			t.fs.mu.Unlock()
		}
		if t.fs.tr.enabled() {
			t.op("sync", 0, start)
		}
		return err
	})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.start, p.start), min(k.end, p.end)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// traceOverheadUS measures what tracing adds to a request crossing hops
// traced HTTP hops: the timing transport and traced handler around no-op
// inner calls, minus the same calls unwrapped.
func traceOverheadUS(hops int) float64 {
	const n = 20000
	tr := newTracer()
	nopRT := roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusOK, Body: http.NoBody}, nil
	})
	nopH := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	req := httptest.NewRequest(http.MethodPost, "http://127.0.0.1/v1/indexes/a/query", nil)
	req = req.WithContext(withTag(req.Context(), 1))
	hreq := req.Clone(req.Context())
	hreq.Header.Set(spanHeader, "1")
	w := httptest.NewRecorder()
	loop := func(rt http.RoundTripper, h http.Handler) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if resp, err := rt.RoundTrip(req); err == nil {
				resp.Body.Close()
			}
			h.ServeHTTP(w, hreq)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	}
	plain := loop(nopRT, nopH)
	wrapped := loop(&timingTransport{inner: nopRT, tr: tr, root: true}, &tracedHandler{h: nopH, tr: tr, layer: "server"})
	return max(0, wrapped-plain) * float64(hops) / 1e3
}
