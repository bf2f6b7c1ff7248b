package core

import (
	"context"
	"errors"
	"testing"
)

func buildShardedForCtx(t *testing.T, shards int) *ShardedDynamic1D {
	t.Helper()
	keys := make([]float64, 4096)
	measures := make([]float64, 4096)
	for i := range keys {
		keys[i] = float64(i)
		measures[i] = 1
	}
	s, err := NewShardedDynamic(Count, keys, measures, shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A cancelled context stops every sharded query path with ctx.Err().
func TestShardedQueryCtxCancelled(t *testing.T) {
	s := buildShardedForCtx(t, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.Query(ctx, Range{Lo: 0, Hi: 4095}); !errors.Is(err, context.Canceled) {
		t.Errorf("Query: err = %v, want context.Canceled", err)
	}
	if _, err := s.QueryBatch(ctx, []Range{{Lo: 0, Hi: 100}}); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryBatch: err = %v, want context.Canceled", err)
	}
	if _, err := s.QueryRel(ctx, Range{Lo: 0, Hi: 4095}, 0.01); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryRel: err = %v, want context.Canceled", err)
	}

	m := buildShardedMaxForCtx(t)
	if _, err := m.Query(ctx, Range{Lo: 0, Hi: 4095}); !errors.Is(err, context.Canceled) {
		t.Errorf("Query (max): err = %v, want context.Canceled", err)
	}
	if _, err := m.QueryRel(ctx, Range{Lo: 0, Hi: 4095}, 0.01); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryRel (max): err = %v, want context.Canceled", err)
	}
}

func buildShardedMaxForCtx(t *testing.T) *ShardedDynamic1D {
	t.Helper()
	keys := make([]float64, 4096)
	measures := make([]float64, 4096)
	for i := range keys {
		keys[i] = float64(i)
		measures[i] = float64(i % 100)
	}
	s, err := NewShardedDynamic(Max, keys, measures, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A live context changes nothing: a cancellable context, under which
// batches are answered in chunks with a check between them, agrees exactly
// with one that can never be cancelled.
func TestShardedQueryCtxLiveMatchesPlain(t *testing.T) {
	for _, shards := range []int{1, 8} {
		s := buildShardedForCtx(t, shards)
		live, cancel := context.WithCancel(context.Background())
		defer cancel()
		plain := context.Background()
		a1, err1 := s.Query(plain, Range{Lo: 10, Hi: 4000})
		a2, err2 := s.Query(live, Range{Lo: 10, Hi: 4000})
		if a1 != a2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("Query mismatch: (%+v,%v) vs (%+v,%v)", a1, err1, a2, err2)
		}
		r := []Range{{Lo: 0, Hi: 100}, {Lo: 50, Hi: 2000}, {Lo: -5, Hi: 5000}, {Lo: 9, Hi: 3}}
		for len(r) < 3*batchCtxChunk {
			lo := float64(len(r) % 4000)
			r = append(r, Range{Lo: lo, Hi: lo + float64(len(r)%37)})
		}
		p1, e1 := s.QueryBatch(plain, r)
		p2, e2 := s.QueryBatch(live, r)
		if (e1 == nil) != (e2 == nil) || len(p1) != len(p2) {
			t.Fatalf("QueryBatch mismatch: %v vs %v", e1, e2)
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("QueryBatch result %d: %+v vs %+v", i, p1[i], p2[i])
			}
		}
	}
}
