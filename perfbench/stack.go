package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// node is one loopback HTTP listener serving a handler, the way
// polyfit-serve hosts a server or router.
type node struct {
	url  string
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// listen reserves a loopback port; start serves on it.
func listen() (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return &node{url: "http://" + ln.Addr().String(), ln: ln, done: make(chan struct{})}, nil
}

func (n *node) start(h http.Handler) {
	n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.done)
		n.srv.Serve(n.ln) //nolint:errcheck // always ErrServerClosed after close
	}()
}

// close stops the listener and every connection, and waits for Serve.
func (n *node) close() {
	if n.srv == nil {
		n.ln.Close()
		return
	}
	n.srv.Close()
	<-n.done
}

// client is one connection's worth of HTTP client: its transport keeps a
// single idle connection, so each load-generator worker is one connection.
type client struct {
	hc   *http.Client
	base string
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true, IdleConnTimeout: time.Minute}
}

func newClient(base string, tr *tracer) *client {
	var rt http.RoundTripper = newTransport()
	if tr != nil {
		rt = &timingTransport{inner: rt, tr: tr, root: true}
	}
	return &client{hc: &http.Client{Transport: rt, Timeout: 30 * time.Second}, base: base}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx answer.
type statusError struct{ code int }

func (e statusError) Error() string { return "http status " + strconv.Itoa(e.code) }

// do sends one request and decodes a 2xx JSON answer into out (if non-nil).
// Transport errors come back wrapped; non-2xx answers as statusError.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return statusError{resp.StatusCode}
	}
	if out == nil {
		return nil
	}
	if p, ok := out.(*[]byte); ok {
		*p = raw
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (c *client) get(path string, out any) error {
	return c.do(context.Background(), http.MethodGet, path, nil, out)
}

// answer is one served range answer.
type answer struct {
	Value float64 `json:"value"`
	Found bool    `json:"found"`
	Exact bool    `json:"exact"`
	Bound float64 `json:"bound"`
}

func queryBody(lo, hi, epsRel float64) []byte {
	b := append([]byte(`{"lo":`), strconv.FormatFloat(lo, 'g', -1, 64)...)
	b = append(append(b, `,"hi":`...), strconv.FormatFloat(hi, 'g', -1, 64)...)
	if epsRel > 0 {
		b = append(append(b, `,"eps_rel":`...), strconv.FormatFloat(epsRel, 'g', -1, 64)...)
	}
	return append(b, '}')
}

func batchBody(ranges [][2]float64) []byte {
	b := make([]byte, 0, 48*len(ranges)+16)
	b = append(b, `{"ranges":[`...)
	for i, r := range ranges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lo":`...)
		b = strconv.AppendFloat(b, r[0], 'g', -1, 64)
		b = append(b, `,"hi":`...)
		b = strconv.AppendFloat(b, r[1], 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func insertBody(keys []float64) []byte {
	b := make([]byte, 0, 24*len(keys)+16)
	b = append(b, `{"records":[`...)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"key":`...)
		b = strconv.AppendFloat(b, k, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

// tally counts attempted operations and failed ones by class: HTTP status,
// transport error, bound violation, lost acknowledged insert.
type tally struct {
	mu        sync.Mutex
	attempted int64
	classes   map[string]int64
}

func newTally() *tally { return &tally{classes: make(map[string]int64)} }

func (t *tally) add(n int64) { t.mu.Lock(); t.attempted += n; t.mu.Unlock() }

func (t *tally) fail(class string, n int64) {
	t.mu.Lock()
	t.classes[class] += n
	t.mu.Unlock()
}

// result records one attempted operation's outcome; it returns whether it
// succeeded.
func (t *tally) result(err error) bool {
	t.add(1)
	if err == nil {
		return true
	}
	var se statusError
	if errors.As(err, &se) {
		t.fail("http_"+strconv.Itoa(se.code), 1)
	} else {
		t.fail("transport", 1)
	}
	return false
}

func (t *tally) failed() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int64(0)
	for _, v := range t.classes {
		n += v
	}
	return n
}

// counters reads the numeric fields of GET /v1/stats. Every field is
// optional: a counter a later version drops is simply absent.
func counters(c *client) map[string]float64 {
	var raw map[string]any
	out := make(map[string]float64)
	if c.get("/v1/stats", &raw) != nil {
		return out
	}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// delta returns after[k]-before[k] summed over the given snapshots, and
// whether the counter was present.
func delta(before, after []map[string]float64, k string) (float64, bool) {
	sum, seen := 0.0, false
	for i := range after {
		a, ok := after[i][k]
		if !ok {
			continue
		}
		seen = true
		sum += a - before[i][k]
	}
	return sum, seen
}

// indexStats is the subset of GET /v1/indexes the benchmark reads.
type indexStats struct {
	Name          string `json:"name"`
	Records       int    `json:"records"`
	Segments      int    `json:"segments"`
	IndexBytes    int    `json:"index_bytes"`
	FallbackBytes int    `json:"fallback_bytes"`
	Encoding      string `json:"encoding"`
}

func listIndexes(c *client) ([]indexStats, error) {
	var out []indexStats
	err := c.get("/v1/indexes", &out)
	return out, err
}
