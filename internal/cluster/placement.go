package cluster

// Shard placement splits one sharded index across processes. The POLS
// container is the transfer format: Split opens a sharded blob, regroups
// its shards into contiguous runs, and reassembles each run into a
// standalone POLS blob a node restores as an ordinary index. The cuts
// between runs become the placement map — the router partitions inserts by
// key against them, and answers reads by fanning the query to every node
// and merging the disjoint partial answers with core.Merge, the same rule
// the shard gather inside one process uses (the key sets are disjoint by
// construction, so no clipping is needed).

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"

	polyfit "repro"
	"repro/internal/core"
)

// PlacedIndex is the router's placement map for one sharded index split
// across processes: node i owns keys in [Cuts[i-1], Cuts[i]) (with the
// open ends at the extremes).
type PlacedIndex struct {
	Name string
	// Agg is the index aggregate — it decides how per-node partial answers
	// merge. Split and Deploy take it from the blob.
	Agg polyfit.Agg
	// Cuts are the len(Nodes)−1 key boundaries between nodes, ascending.
	Cuts []float64
	// Nodes are the base URLs owning each key span, in cut order.
	Nodes []string
}

// nodeOf returns the node index owning key k.
func (p *PlacedIndex) nodeOf(k float64) int {
	return sort.Search(len(p.Cuts), func(j int) bool { return p.Cuts[j] > k })
}

// Split cuts a sharded-dynamic POLS blob into nodes standalone POLS
// blobs of contiguous shard runs, plus the key cuts between them and the
// aggregate the blob records. nodes must not exceed the shard count —
// shards are the placement granularity.
func Split(blob []byte, nodes int) (parts [][]byte, cuts []float64, agg polyfit.Agg, err error) {
	if nodes < 1 {
		return nil, nil, 0, fmt.Errorf("cluster: split into %d nodes", nodes)
	}
	ix, err := polyfit.Open(blob)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cluster: split: %w", err)
	}
	snap, ok := ix.(polyfit.ShardSnapshotter)
	if !ok {
		return nil, nil, 0, fmt.Errorf("cluster: split: blob is not a sharded dynamic index")
	}
	k := snap.NumShards()
	if nodes > k {
		return nil, nil, 0, fmt.Errorf("cluster: split: %d nodes but only %d shards", nodes, k)
	}
	bounds := snap.Bounds() // k-1 boundaries; bounds[i] separates shard i and i+1
	for node := 0; node < nodes; node++ {
		lo, hi := node*k/nodes, (node+1)*k/nodes // shards [lo, hi)
		blobs := make([][]byte, 0, hi-lo)
		for i := lo; i < hi; i++ {
			b, err := snap.MarshalShard(i)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("cluster: split shard %d: %w", i, err)
			}
			blobs = append(blobs, b)
		}
		sub, err := polyfit.Assemble(bounds[lo:hi-1], blobs)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("cluster: split: assemble node %d: %w", node, err)
		}
		part, err := sub.MarshalBinary()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("cluster: split: marshal node %d: %w", node, err)
		}
		parts = append(parts, part)
		if node < nodes-1 {
			cuts = append(cuts, bounds[hi-1])
		}
	}
	return parts, cuts, ix.Stats().Aggregate, nil
}

// Deploy splits a sharded blob across nodes and uploads each part under
// name via POST /v1/indexes/{name}/restore, returning the PlacedIndex the
// router routes by.
func Deploy(ctx context.Context, hc *http.Client, name string, blob []byte, nodes []string) (*PlacedIndex, error) {
	parts, cuts, agg, err := Split(blob, len(nodes))
	if err != nil {
		return nil, err
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	for i, node := range nodes {
		body, err := json.Marshal(map[string]string{"blob": base64.StdEncoding.EncodeToString(parts[i])})
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			node+"/v1/indexes/"+name+"/restore", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return nil, fmt.Errorf("cluster: deploy %q to %s: %w", name, node, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("cluster: deploy %q to %s: status %d", name, node, resp.StatusCode)
		}
	}
	return &PlacedIndex{
		Name:  name,
		Agg:   agg,
		Cuts:  cuts,
		Nodes: append([]string(nil), nodes...),
	}, nil
}

// Wire mirrors of the server's data-plane JSON, local to the router so
// the cluster package does not import internal/server.
type queryAnswer struct {
	Value float64 `json:"value"`
	Found bool    `json:"found"`
	Exact bool    `json:"exact,omitempty"`
	Bound float64 `json:"bound"`
}

type batchAnswer struct {
	Results []queryAnswer `json:"results"`
}

type insertBody struct {
	Records []struct {
		Key     float64 `json:"key"`
		Measure float64 `json:"measure"`
	} `json:"records"`
}

type insertAnswer struct {
	Inserted int      `json:"inserted"`
	Rejected int      `json:"rejected"`
	Durable  bool     `json:"durable,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`
	Errors   []string `json:"errors,omitempty"`
}

// merge folds disjoint per-node partial answers into one with core.Merge.
func merge(agg polyfit.Agg, parts []queryAnswer) queryAnswer {
	rs := make([]core.Result, len(parts))
	for i, p := range parts {
		rs[i] = core.Result{Value: p.Value, Exact: p.Exact, Found: p.Found, Bound: p.Bound}
	}
	m := core.Merge(agg, rs)
	return queryAnswer{Value: m.Value, Found: m.Found, Exact: m.Exact, Bound: m.Bound}
}

// servePlaced handles a data-plane request for a placed index.
func (rt *Router) servePlaced(w http.ResponseWriter, r *http.Request, p *PlacedIndex, op string, body []byte) {
	rt.placedReqs.Add(1)
	switch {
	case r.Method == http.MethodPost && op == "query":
		rt.placedQuery(w, r, p, body)
	case r.Method == http.MethodPost && op == "batch":
		rt.placedBatch(w, r, p, body)
	case r.Method == http.MethodPost && op == "insert":
		rt.placedInsert(w, r, p, body)
	default:
		writeRouterError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("placed index %q supports query, batch and insert through the router", p.Name))
	}
}

// fanOut sends the same request body to every node of a placement and
// returns the buffered responses, failing fast on the first error or
// non-200.
func (rt *Router) fanOut(ctx context.Context, p *PlacedIndex, op string, body []byte) ([][]byte, error) {
	type reply struct {
		node int
		body []byte
		err  error
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan reply, len(p.Nodes))
	for i := range p.Nodes {
		go func(i int) {
			res, err := rt.attempt(ctx, &replica{base: p.Nodes[i]}, &http.Request{
				Method: http.MethodPost,
				URL:    mustURL("/v1/indexes/" + p.Name + "/" + op),
				Header: http.Header{"Content-Type": []string{"application/json"}},
			}, body)
			if err == nil && res.status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", res.status, truncated(res.body))
			}
			if err != nil {
				ch <- reply{node: i, err: fmt.Errorf("node %s: %w", p.Nodes[i], err)}
				return
			}
			ch <- reply{node: i, body: res.body}
		}(i)
	}
	out := make([][]byte, len(p.Nodes))
	for range p.Nodes {
		rep := <-ch
		if rep.err != nil {
			return nil, rep.err
		}
		out[rep.node] = rep.body
	}
	return out, nil
}

func (rt *Router) placedQuery(w http.ResponseWriter, r *http.Request, p *PlacedIndex, body []byte) {
	replies, err := rt.fanOut(r.Context(), p, "query", body)
	if err != nil {
		rt.routeErrors.Add(1)
		writeRouterError(w, http.StatusBadGateway, err)
		return
	}
	parts := make([]queryAnswer, len(replies))
	for i, rep := range replies {
		if err := json.Unmarshal(rep, &parts[i]); err != nil {
			rt.routeErrors.Add(1)
			writeRouterError(w, http.StatusBadGateway, fmt.Errorf("node %s: bad answer: %w", p.Nodes[i], err))
			return
		}
	}
	writeJSON(w, merge(p.Agg, parts))
}

func (rt *Router) placedBatch(w http.ResponseWriter, r *http.Request, p *PlacedIndex, body []byte) {
	replies, err := rt.fanOut(r.Context(), p, "batch", body)
	if err != nil {
		rt.routeErrors.Add(1)
		writeRouterError(w, http.StatusBadGateway, err)
		return
	}
	var merged []batchPartial
	for i, rep := range replies {
		var ba batchAnswer
		if err := json.Unmarshal(rep, &ba); err != nil {
			rt.routeErrors.Add(1)
			writeRouterError(w, http.StatusBadGateway, fmt.Errorf("node %s: bad answer: %w", p.Nodes[i], err))
			return
		}
		if merged == nil {
			merged = make([]batchPartial, len(ba.Results))
		}
		if len(ba.Results) != len(merged) {
			rt.routeErrors.Add(1)
			writeRouterError(w, http.StatusBadGateway,
				fmt.Errorf("node %s: %d results, want %d", p.Nodes[i], len(ba.Results), len(merged)))
			return
		}
		for j, qa := range ba.Results {
			merged[j] = append(merged[j], qa)
		}
	}
	out := batchAnswer{Results: make([]queryAnswer, len(merged))}
	for j, parts := range merged {
		out.Results[j] = merge(p.Agg, parts)
	}
	writeJSON(w, out)
}

func (rt *Router) placedInsert(w http.ResponseWriter, r *http.Request, p *PlacedIndex, body []byte) {
	var req insertBody
	if err := json.Unmarshal(body, &req); err != nil {
		writeRouterError(w, http.StatusBadRequest, fmt.Errorf("decode insert: %w", err))
		return
	}
	// Partition the records by owning node; only owners see a request.
	byNode := make(map[int][]byte)
	for node := range p.Nodes {
		var sub insertBody
		for _, rec := range req.Records {
			if p.nodeOf(rec.Key) == node {
				sub.Records = append(sub.Records, rec)
			}
		}
		if len(sub.Records) == 0 {
			continue
		}
		b, err := json.Marshal(&sub)
		if err != nil {
			writeRouterError(w, http.StatusInternalServerError, err)
			return
		}
		byNode[node] = b
	}
	merged := insertAnswer{Durable: true}
	touched := false
	for node, sub := range byNode {
		res, err := rt.attempt(r.Context(), &replica{base: p.Nodes[node]}, &http.Request{
			Method: http.MethodPost,
			URL:    mustURL("/v1/indexes/" + p.Name + "/insert"),
			Header: http.Header{"Content-Type": []string{"application/json"}},
		}, sub)
		if err == nil && res.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", res.status, truncated(res.body))
		}
		if err != nil {
			rt.routeErrors.Add(1)
			writeRouterError(w, http.StatusBadGateway, fmt.Errorf("node %s: %w", p.Nodes[node], err))
			return
		}
		var ia insertAnswer
		if err := json.Unmarshal(res.body, &ia); err != nil {
			rt.routeErrors.Add(1)
			writeRouterError(w, http.StatusBadGateway, fmt.Errorf("node %s: bad answer: %w", p.Nodes[node], err))
			return
		}
		touched = true
		merged.Inserted += ia.Inserted
		merged.Rejected += ia.Rejected
		merged.Durable = merged.Durable && ia.Durable
		merged.Degraded = merged.Degraded || ia.Degraded
		if len(merged.Errors) < 8 {
			merged.Errors = append(merged.Errors, ia.Errors...)
		}
	}
	if !touched {
		merged.Durable = false // nothing was written, nothing is durable
	}
	writeJSON(w, merged)
}

// batchPartial collects one range's partial answers across nodes.
type batchPartial []queryAnswer

// mustURL builds a path-only URL for a synthesised upstream request.
func mustURL(path string) *url.URL {
	return &url.URL{Path: path}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func truncated(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(bytes.TrimSpace(b))
}
