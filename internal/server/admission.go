package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// Overload control for the query path (admission.go): a bounded admission
// queue in front of a concurrency limit. A point query and a batch each
// take one slot for the whole request, through the same acquire call.
// Inserts and admin operations are never gated — shedding reads to
// protect writes is the point, not the other way around.
//
// At most MaxConcurrentQueries requests execute at once; up to
// MaxQueuedQueries more wait for a slot. Beyond that the request is shed
// immediately (HTTP 429 + Retry-After) instead of queueing unboundedly —
// under overload the server answers "try later" in microseconds rather
// than timing everyone out.

// errShed reports a query rejected by admission control because both the
// executing slots and the wait queue were full.
var errShed = errors.New("server overloaded: query queue is full")

// admission is the bounded queue + concurrency limit. acquire is designed
// so the shed decision is lock-free and immediate: a full queue is
// detected with one atomic add, never by waiting.
type admission struct {
	sem      chan struct{} // buffered to the concurrency limit
	maxQueue int64
	queued   atomic.Int64 // waiters currently queued for a slot
	shed     atomic.Int64 // requests rejected with errShed
}

func newAdmission(maxConcurrent, maxQueue int) *admission {
	return &admission{sem: make(chan struct{}, maxConcurrent), maxQueue: int64(maxQueue)}
}

// acquire takes an execution slot, queueing up to the configured depth.
// It returns errShed without blocking when the queue is full, or ctx's
// error if the context dies while queued. A nil return must be paired
// with release.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.sem <- struct{}{}:
		return nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.shed.Add(1)
		return errShed
	}
	defer a.queued.Add(-1)
	select {
	case a.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) release() { <-a.sem }

// testHookQueryDelay, when non-nil, runs in every query and batch after
// its admission slot is acquired and before the index executes it. Tests
// use it to hold a query in place so the queue provably fills.
// testHookQueryDelayCtx is the context-aware variant, for tests that must
// park a query until its own request context dies.
var (
	testHookQueryDelay    func()
	testHookQueryDelayCtx func(context.Context)
)

// runQueryDelayHooks fires the test hooks at a query-execution point.
func runQueryDelayHooks(ctx context.Context) {
	if testHookQueryDelay != nil {
		testHookQueryDelay()
	}
	if testHookQueryDelayCtx != nil {
		testHookQueryDelayCtx(ctx)
	}
}
