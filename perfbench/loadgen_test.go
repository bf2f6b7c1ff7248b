package main

import (
	"context"
	"testing"
	"time"
)

// TestOpenLoopCountsStall stalls the first operation of an open loop: the
// operations due during the stall wait for it, and their latency, counted
// from their due time, includes that wait.
func TestOpenLoopCountsStall(t *testing.T) {
	const stall = 60 * time.Millisecond
	dues := make([]time.Duration, 20)
	for i := range dues {
		dues[i] = time.Duration(i) * 2 * time.Millisecond
	}
	samples, started, err := openLoop(context.Background(), time.Now(), dues, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range samples {
		if !started[i] {
			t.Fatalf("operation %d skipped", i)
		}
		// Operation i was due at 2i ms and could not start before the
		// stall ended at 60 ms.
		if want := stall - dues[i]; s.lat < want {
			t.Errorf("operation %d: latency %v, want at least %v", i, s.lat, want)
		}
		// The generator itself woke on time for every operation.
		if s.late > 20*time.Millisecond {
			t.Errorf("operation %d released %v late", i, s.late)
		}
	}
}

// TestOpenLoopSkipsAfterDeadline checks that operations still queued when
// the context ends are skipped, not run.
func TestOpenLoopSkipsAfterDeadline(t *testing.T) {
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	_, started, _ := openLoop(ctx, time.Now(), dues, func(i int) error {
		if i == 0 {
			cancel()
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	})
	if !started[0] || started[1] || started[2] {
		t.Errorf("started = %v, want only the first", started)
	}
}
