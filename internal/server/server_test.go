package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	polyfit "repro"
	"repro/internal/data"
)

func post(t *testing.T, ts *httptest.Server, path string, body, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp
}

func get(t *testing.T, ts *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp
}

func TestServeStaticCountEndToEnd(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()

	keys := data.GenTweet(20_000, 21)
	var st StatsResponse
	resp := post(t, ts, "/v1/indexes", CreateRequest{
		Name: "tweets", Agg: "count", Keys: keys, EpsAbs: 50,
	}, &st)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if st.Records != len(keys) || st.Aggregate != "COUNT" || st.Dynamic {
		t.Fatalf("bad stats %+v", st)
	}

	// Single query matches the library answer.
	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: keys}, polyfit.WithMaxError(50))
	if err != nil {
		t.Fatal(err)
	}
	lib, _ := ix.Query(polyfit.Range{Lo: 10, Hi: 40})
	want := lib.Value
	var q QueryResponse
	post(t, ts, "/v1/indexes/tweets/query", QueryRequest{Lo: 10, Hi: 40}, &q)
	if !q.Found || math.Abs(q.Value-want) > 1e-9 {
		t.Fatalf("query = %+v, want value %g", q, want)
	}

	// Relative query runs the certified path.
	post(t, ts, "/v1/indexes/tweets/query", QueryRequest{Lo: 10, Hi: 40, EpsRel: 0.01}, &q)
	res, _ := ix.QueryRel(polyfit.Range{Lo: 10, Hi: 40}, 0.01)
	if math.Abs(q.Value-res.Value) > 1e-9 {
		t.Fatalf("rel query = %+v, want %g", q, res.Value)
	}

	// Batched queries answer many ranges per request, matching serial.
	rng := rand.New(rand.NewSource(22))
	req := BatchRequest{Ranges: make([]RangeJSON, 256)}
	for i := range req.Ranges {
		a := -90 + rng.Float64()*180
		b := -90 + rng.Float64()*180
		if a > b {
			a, b = b, a
		}
		req.Ranges[i] = RangeJSON{Lo: a, Hi: b}
	}
	var batch BatchResponse
	resp = post(t, ts, "/v1/indexes/tweets/batch", req, &batch)
	if resp.StatusCode != http.StatusOK || len(batch.Results) != 256 {
		t.Fatalf("batch: status %d, %d results", resp.StatusCode, len(batch.Results))
	}
	for i, rr := range req.Ranges {
		want, _ := ix.Query(polyfit.Range{Lo: rr.Lo, Hi: rr.Hi})
		if got := batch.Results[i].Value; math.Abs(got-want.Value) > 1e-9 {
			t.Fatalf("batch result %d = %g, want %g", i, got, want.Value)
		}
	}

	// Marshal round-trips into a second, equivalent index.
	blobResp, err := ts.Client().Get(ts.URL + "/v1/indexes/tweets/marshal")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(blobResp.Body)
	blobResp.Body.Close()
	if err != nil || len(blob) == 0 {
		t.Fatalf("marshal: %v (%d bytes)", err, len(blob))
	}
	post(t, ts, "/v1/indexes", CreateRequest{
		Name: "tweets-loaded", Blob: encodeB64(blob),
	}, nil)
	var q2 QueryResponse
	post(t, ts, "/v1/indexes/tweets-loaded/query", QueryRequest{Lo: 10, Hi: 40}, &q2)
	if math.Abs(q2.Value-want) > 1e-9 {
		t.Fatalf("loaded index answers %g, want %g", q2.Value, want)
	}

	// List sees both.
	var list []StatsResponse
	get(t, ts, "/v1/indexes", &list)
	if len(list) != 2 {
		t.Fatalf("list: %d entries", len(list))
	}

	// Delete works and the index is gone.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/indexes/tweets-loaded", nil)
	delResp, err := ts.Client().Do(delReq)
	if err != nil || delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %d", err, delResp.StatusCode)
	}
	delResp.Body.Close()
	if resp := post(t, ts, "/v1/indexes/tweets-loaded/query", QueryRequest{}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query after delete: status %d", resp.StatusCode)
	}
}

func TestServeDynamicInsertAndRebuild(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()

	keys, vals := data.GenHKI(5_000, 23)
	post(t, ts, "/v1/indexes", CreateRequest{
		Name: "hki", Agg: "sum", Dynamic: true, Keys: keys, Measures: vals, EpsAbs: 500,
	}, nil)

	// Insert past the end of the series; one duplicate must be rejected.
	last := keys[len(keys)-1]
	var ins InsertResponse
	post(t, ts, "/v1/indexes/hki/insert", InsertRequest{Records: []Record{
		{Key: last + 1, Measure: 100},
		{Key: last + 2, Measure: 200},
		{Key: last + 1, Measure: 999}, // duplicate
	}}, &ins)
	if ins.Inserted != 2 || ins.Rejected != 1 || len(ins.Errors) != 1 {
		t.Fatalf("insert response %+v", ins)
	}

	// The inserted mass is visible immediately (exact buffer contribution).
	var q QueryResponse
	post(t, ts, "/v1/indexes/hki/query", QueryRequest{Lo: last, Hi: last + 10}, &q)
	if math.Abs(q.Value-300) > 500 {
		t.Fatalf("buffered inserts not served: %+v", q)
	}

	var st StatsResponse
	get(t, ts, "/v1/indexes/hki", &st)
	if !st.Dynamic || st.BufferLen != 2 {
		t.Fatalf("stats before rebuild: %+v", st)
	}
	var after StatsResponse
	post(t, ts, "/v1/indexes/hki/rebuild", struct{}{}, &after)
	if after.BufferLen != 0 || after.Records != len(keys)+2 {
		t.Fatalf("stats after rebuild: %+v", after)
	}

	// Inserting into a static index is a 409.
	post(t, ts, "/v1/indexes", CreateRequest{Name: "static", Agg: "count", Keys: keys, EpsAbs: 50}, nil)
	if resp := post(t, ts, "/v1/indexes/static/insert", InsertRequest{Records: []Record{{Key: 1}}}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("insert into static: status %d", resp.StatusCode)
	}
}

func TestServeValidation(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()

	keys := data.GenTweet(1_000, 25)
	cases := []struct {
		name string
		req  CreateRequest
		want int
	}{
		{"missing name", CreateRequest{Agg: "count", Keys: keys, EpsAbs: 10}, http.StatusBadRequest},
		{"bad agg", CreateRequest{Name: "x", Agg: "median", Keys: keys, EpsAbs: 10}, http.StatusBadRequest},
		{"no eps", CreateRequest{Name: "x", Agg: "count", Keys: keys}, http.StatusBadRequest},
		{"empty keys", CreateRequest{Name: "x", Agg: "count", EpsAbs: 10}, http.StatusBadRequest},
		{"dynamic blob", CreateRequest{Name: "x", Dynamic: true, Blob: "AAAA"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if resp := post(t, ts, "/v1/indexes", c.req, nil); resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}

	post(t, ts, "/v1/indexes", CreateRequest{Name: "a", Agg: "count", Keys: keys, EpsAbs: 10}, nil)
	if resp := post(t, ts, "/v1/indexes", CreateRequest{Name: "a", Agg: "count", Keys: keys, EpsAbs: 10}, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate name: status %d", resp.StatusCode)
	}

	// Relative query on a fallback-free index surfaces ErrNoFallback as 409.
	post(t, ts, "/v1/indexes", CreateRequest{
		Name: "nofb", Agg: "count", Keys: keys, EpsAbs: 10, DisableFallback: true,
	}, nil)
	if resp := post(t, ts, "/v1/indexes/nofb/query",
		QueryRequest{Lo: keys[0], Hi: keys[0], EpsRel: 0.01}, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("no-fallback rel query: status %d", resp.StatusCode)
	}
}

// TestServeConcurrentTraffic drives inserts, single queries, and batched
// queries against one dynamic index from many goroutines through the full
// HTTP stack; meaningful under -race.
func TestServeConcurrentTraffic(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()

	keys := data.GenTweet(10_000, 27)
	post(t, ts, "/v1/indexes", CreateRequest{
		Name: "live", Agg: "count", Dynamic: true, Keys: keys, EpsAbs: 50,
	}, nil)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + g)))
			for i := 0; i < 40; i++ {
				recs := make([]Record, 8)
				for j := range recs {
					recs[j] = Record{Key: 1000 + rng.Float64()*1e6}
				}
				raw, _ := json.Marshal(InsertRequest{Records: recs})
				resp, err := ts.Client().Post(ts.URL+"/v1/indexes/live/insert", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("insert status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + g)))
			for i := 0; i < 40; i++ {
				var body []byte
				path := "/v1/indexes/live/query"
				if i%2 == 0 {
					ranges := make([]RangeJSON, 32)
					for j := range ranges {
						a, b := -90+rng.Float64()*180, -90+rng.Float64()*180
						if a > b {
							a, b = b, a
						}
						ranges[j] = RangeJSON{Lo: a, Hi: b}
					}
					body, _ = json.Marshal(BatchRequest{Ranges: ranges})
					path = "/v1/indexes/live/batch"
				} else {
					body, _ = json.Marshal(QueryRequest{Lo: -90, Hi: 90})
				}
				resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s status %d", path, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var st StatsResponse
	get(t, ts, "/v1/indexes/live", &st)
	if st.Records <= len(keys) {
		t.Errorf("no inserts landed: %+v", st)
	}
}

func encodeB64(b []byte) string {
	return base64.StdEncoding.EncodeToString(b)
}

// TestServeParallelBuildAndRootBytes: an explicit parallelism request must
// build the same index a serial build produces (same stats, same marshalled
// bytes), and /stats must surface the learned-root footprint.
func TestServeParallelBuildAndRootBytes(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()

	keys := data.GenTweet(20_000, 33)
	var serial, par StatsResponse
	resp := post(t, ts, "/v1/indexes", CreateRequest{
		Name: "serial", Agg: "count", Keys: keys, Delta: 25,
		DisableFallback: true, Parallelism: 1,
	}, &serial)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("serial create: status %d", resp.StatusCode)
	}
	resp = post(t, ts, "/v1/indexes", CreateRequest{
		Name: "par", Agg: "count", Keys: keys, Delta: 25,
		DisableFallback: true, Parallelism: 8,
	}, &par)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("parallel create: status %d", resp.StatusCode)
	}
	if serial.Segments != par.Segments || serial.IndexBytes != par.IndexBytes || serial.RootBytes != par.RootBytes {
		t.Fatalf("parallel build stats differ: serial %+v vs parallel %+v", serial, par)
	}
	if par.Segments > 1 && par.RootBytes <= 0 {
		t.Fatalf("stats should surface the learned-root bytes, got %d", par.RootBytes)
	}
	if par.RootBytes >= par.IndexBytes {
		t.Fatalf("root bytes (%d) must be a strict part of index bytes (%d)", par.RootBytes, par.IndexBytes)
	}

	blobOf := func(name string) []byte {
		resp, err := ts.Client().Get(ts.URL + "/v1/indexes/" + name + "/marshal")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(blobOf("serial"), blobOf("par")) {
		t.Fatal("parallel server build is not byte-identical to serial")
	}
}
