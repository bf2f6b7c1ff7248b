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

	if _, _, err := s.RangeSumCtx(ctx, 0, 4095); !errors.Is(err, context.Canceled) {
		t.Errorf("RangeSumCtx: err = %v, want context.Canceled", err)
	}
	if _, err := s.QueryBatchCtx(ctx, []Range{{Lo: 0, Hi: 100}}); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryBatchCtx: err = %v, want context.Canceled", err)
	}
	if _, _, _, err := s.RangeSumRelCtx(ctx, 0, 4095, 0.01); !errors.Is(err, context.Canceled) {
		t.Errorf("RangeSumRelCtx: err = %v, want context.Canceled", err)
	}

	m := buildShardedMaxForCtx(t)
	if _, _, _, err := m.RangeExtremumCtx(ctx, 0, 4095); !errors.Is(err, context.Canceled) {
		t.Errorf("RangeExtremumCtx: err = %v, want context.Canceled", err)
	}
	if _, _, _, _, err := m.RangeExtremumRelCtx(ctx, 0, 4095, 0.01); !errors.Is(err, context.Canceled) {
		t.Errorf("RangeExtremumRelCtx: err = %v, want context.Canceled", err)
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

// A live context changes nothing: ctx variants and plain variants agree
// exactly.
func TestShardedQueryCtxLiveMatchesPlain(t *testing.T) {
	s := buildShardedForCtx(t, 8)
	ctx := context.Background()
	v1, b1, err1 := s.RangeSum(10, 4000)
	v2, b2, err2 := s.RangeSumCtx(ctx, 10, 4000)
	if v1 != v2 || b1 != b2 || (err1 == nil) != (err2 == nil) {
		t.Fatalf("RangeSum mismatch: (%g,%g,%v) vs (%g,%g,%v)", v1, b1, err1, v2, b2, err2)
	}
	r := []Range{{Lo: 0, Hi: 100}, {Lo: 50, Hi: 2000}, {Lo: -5, Hi: 5000}}
	p1, e1 := s.QueryBatch(r)
	p2, e2 := s.QueryBatchCtx(ctx, r)
	if (e1 == nil) != (e2 == nil) || len(p1) != len(p2) {
		t.Fatalf("QueryBatch mismatch: %v vs %v", e1, e2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("QueryBatch result %d: %+v vs %+v", i, p1[i], p2[i])
		}
	}
}
