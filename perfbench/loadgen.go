package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// sample is one issued operation. Open-loop latency counts from the
// operation's due time, so time spent waiting for a busy connection is
// part of it; late is how far behind its due time the generator woke.
type sample struct {
	late, lat time.Duration
	err       error
}

// waiter sleeps until a deadline with microsecond precision. Go's timers
// have millisecond resolution on Linux, so it arms a timerfd and parks on
// it through the runtime poller, which holds no P while it waits.
type waiter struct {
	fd uintptr
	f  *os.File
}

type itimerspec struct{ interval, value syscall.Timespec }

func newWaiter() (*waiter, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	return &waiter{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (w *waiter) close() {
	//lint:ignore syncclose a timerfd holds no data, so its close error cannot lose any
	w.f.Close()
}

// until returns at t, or at once if t has passed.
func (w *waiter) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return fmt.Errorf("timerfd_settime: %w", e)
	}
	var buf [8]byte
	_, err := w.f.Read(buf[:])
	return err
}

// poissonDues returns the due offsets of Poisson arrivals at rate per
// second over span.
func poissonDues(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// openLoop runs operation i at start+dues[i], one at a time, on the
// calling goroutine. An operation due while the previous one still runs
// waits, and its latency, counted from the due time, includes that wait.
// late is how far behind its due time the generator woke. When ctx ends,
// operations not yet started are skipped: the returned started flags say
// which ran. The error is a failed wait's.
func openLoop(ctx context.Context, start time.Time, dues []time.Duration, do func(i int) error) ([]sample, []bool, error) {
	samples := make([]sample, len(dues))
	started := make([]bool, len(dues))
	wt, err := newWaiter()
	if err != nil {
		return samples, started, err
	}
	defer wt.close()
	for i, d := range dues {
		due := start.Add(d)
		if time.Until(due) > 0 {
			if err := wt.until(due); err != nil {
				return samples, started, err
			}
			samples[i].late = max(0, time.Since(due))
		}
		if ctx.Err() != nil {
			break
		}
		started[i] = true
		samples[i].err = do(i)
		samples[i].lat = time.Since(due)
	}
	return samples, started, nil
}

// closedLoop runs do on conns workers back to back until ctx ends and
// returns every completed operation, per worker. do(w, seq) runs worker w's
// seq-th operation and returns the latency it measured, so that work the
// client does before sending is not counted.
func closedLoop(ctx context.Context, conns int, do func(w, seq int) (time.Duration, error)) [][]sample {
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ctx.Err() == nil; seq++ {
				lat, err := do(w, seq)
				out[w] = append(out[w], sample{lat: lat, err: err})
			}
		}()
	}
	wg.Wait()
	return out
}
