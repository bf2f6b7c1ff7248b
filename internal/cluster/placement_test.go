package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	polyfit "repro"
)

// buildSharded makes a sharded dynamic SUM index over n records with
// integer measures (so split-and-merge sums are exact floats).
func buildSharded(t *testing.T, n, shards int) (polyfit.Index, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	keys := make([]float64, n)
	measures := make([]float64, n)
	k := 0.0
	for i := range keys {
		k += 1 + float64(rng.Intn(5))
		keys[i] = k
		measures[i] = float64(1 + rng.Intn(100))
	}
	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: measures},
		polyfit.WithMaxError(500), polyfit.WithDynamic(), polyfit.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	return ix, keys, measures
}

func TestSplitPreservesAnswers(t *testing.T) {
	ix, keys, _ := buildSharded(t, 4000, 8)
	blob, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2, 3, 8} {
		parts, cuts, _, err := Split(blob, nodes)
		if err != nil {
			t.Fatalf("split into %d: %v", nodes, err)
		}
		if len(parts) != nodes || len(cuts) != nodes-1 {
			t.Fatalf("split into %d: %d parts, %d cuts", nodes, len(parts), len(cuts))
		}
		// Each part reopens as a standalone index; merged partial sums over
		// disjoint key ownership must reproduce the unsplit answer exactly.
		opened := make([]polyfit.Index, nodes)
		for i, p := range parts {
			if opened[i], err = polyfit.Open(p); err != nil {
				t.Fatalf("open part %d of %d: %v", i, nodes, err)
			}
		}
		rng := rand.New(rand.NewSource(11))
		for q := 0; q < 50; q++ {
			lo := keys[rng.Intn(len(keys))] - 0.5
			hi := lo + float64(rng.Intn(4000))
			want, err := ix.Query(polyfit.Range{Lo: lo, Hi: hi})
			if err != nil {
				t.Fatal(err)
			}
			var got, bound float64
			for _, part := range opened {
				r, err := part.Query(polyfit.Range{Lo: lo, Hi: hi})
				if err != nil {
					t.Fatal(err)
				}
				got += r.Value
				bound += r.Bound
			}
			diff := got - want.Value
			if diff < 0 {
				diff = -diff
			}
			// Partial answers come from the same per-shard fits; regrouping
			// them across nodes only re-associates the float summation, so
			// the merged value may drift by ulps but nothing more.
			tol := 1e-9 * (1 + want.Value)
			if diff > tol {
				t.Fatalf("nodes=%d (%g,%g]: split sum %g, unsplit %g", nodes, lo, hi, got, want.Value)
			}
			// The merged bound can only be looser: every shard the unsplit
			// query touches is touched inside its part, and a part may count
			// an extra boundary shard whose clipped contribution is empty.
			if bound < want.Bound {
				t.Fatalf("nodes=%d (%g,%g]: split bound %g below unsplit %g", nodes, lo, hi, bound, want.Bound)
			}
		}
	}
}

func TestSplitRejectsBadInputs(t *testing.T) {
	ix, _, _ := buildSharded(t, 500, 4)
	blob, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Split(blob, 0); err == nil {
		t.Fatal("0 nodes must fail")
	}
	if _, _, _, err := Split(blob, 5); err == nil {
		t.Fatal("more nodes than shards must fail")
	}
	if _, _, _, err := Split([]byte("junk"), 2); err == nil {
		t.Fatal("junk blob must fail")
	}
}

func TestPlacedNodeOf(t *testing.T) {
	p := &PlacedIndex{Cuts: []float64{10, 20}, Nodes: []string{"a", "b", "c"}}
	for _, tc := range []struct {
		k    float64
		want int
	}{{5, 0}, {9.999, 0}, {10, 1}, {15, 1}, {20, 2}, {1e9, 2}} {
		if got := p.nodeOf(tc.k); got != tc.want {
			t.Errorf("nodeOf(%g) = %d, want %d", tc.k, got, tc.want)
		}
	}
}

// TestDeployRestoresEveryPart deploys sharded blobs to fake nodes. Each
// node checks that its part opens with polyfit.Open and reports the blob's
// aggregate, and the placement Deploy returns carries that aggregate.
func TestDeployRestoresEveryPart(t *testing.T) {
	sum, keys, measures := buildSharded(t, 2000, 6)
	mx, err := polyfit.New(polyfit.Spec{Agg: polyfit.Max, Keys: keys, Measures: measures},
		polyfit.WithMaxError(50), polyfit.WithDynamic(), polyfit.WithShards(6))
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []polyfit.Index{sum, mx} {
		want := ix.Stats().Aggregate
		blob, err := ix.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		restored := map[string]int{} // node URL → records restored there
		nodes := make([]string, 3)
		for i := range nodes {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodPost || r.URL.Path != "/v1/indexes/placed/restore" {
					http.Error(w, "unexpected "+r.Method+" "+r.URL.Path, http.StatusNotFound)
					return
				}
				var req struct{ Blob string }
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				raw, err := base64.StdEncoding.DecodeString(req.Blob)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				part, err := polyfit.Open(raw)
				if err != nil || part.Stats().Aggregate != want {
					http.Error(w, "part does not open as the blob's aggregate", http.StatusBadRequest)
					return
				}
				mu.Lock()
				restored["http://"+r.Host] = part.Stats().Records
				mu.Unlock()
			}))
			defer ts.Close()
			nodes[i] = ts.URL
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		p, err := Deploy(ctx, nil, "placed", blob, nodes)
		cancel()
		if err != nil {
			t.Fatalf("deploy %v: %v", want, err)
		}
		if p.Agg != want || p.Name != "placed" || len(p.Cuts) != len(nodes)-1 || strings.Join(p.Nodes, ",") != strings.Join(nodes, ",") {
			t.Fatalf("deploy %v: placement %+v", want, p)
		}
		total := 0
		for _, node := range nodes {
			n, ok := restored[node]
			if !ok {
				t.Fatalf("deploy %v: node %s restored nothing", want, node)
			}
			total += n
		}
		if total != len(keys) {
			t.Fatalf("deploy %v: parts hold %d records, want %d", want, total, len(keys))
		}
	}
}

// TestNewRouterRejectsBadPlacement: a placement whose aggregate is not one
// of the four, or whose cuts do not separate its nodes, cannot be merged.
func TestNewRouterRejectsBadPlacement(t *testing.T) {
	for _, p := range []*PlacedIndex{
		{Name: "bad-agg", Agg: polyfit.Agg(9), Cuts: []float64{10}, Nodes: []string{"a", "b"}},
		{Name: "no-nodes", Agg: polyfit.Sum},
		{Name: "bad-cuts", Agg: polyfit.Max, Cuts: []float64{1, 2}, Nodes: []string{"a", "b"}},
	} {
		if rt, err := NewRouter(RouterConfig{Placements: []*PlacedIndex{p}, ProbeInterval: time.Hour}); err == nil {
			rt.Close()
			t.Errorf("placement %s accepted", p.Name)
		}
	}
}
