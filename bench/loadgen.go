package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the load generator's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// SleepUntil waits for t in the OS (see sleepOS) and spins through the last
// stretch, so requests leave within microseconds of their due time.
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinFor; d > 0 {
		sleepOS(d)
	}
	for time.Now().Before(t) {
	}
}

// spinFor covers the OS sleep's wake-up delay. Spinning this briefly leaves
// the other processor free to serve and to poll the network; yielding in a
// loop instead would keep the scheduler from polling the network at all.
const spinFor = 150 * time.Microsecond

// execFunc performs one operation on a sender and returns when it
// completed. failed reports a refused or failed operation (a shed 429/503,
// a transport error); err reports an incorrect result and stops the run.
type execFunc func(sender int, o *op) (done time.Time, failed bool, err error)

// timing is the outcome of one scheduled operation.
type timing struct {
	kind opKind
	// latency runs from the moment the operation was due to the moment its
	// response was complete, so time spent queued behind a slow predecessor
	// counts against it.
	latency time.Duration
	// late is how long after its due time a free sender started the
	// operation: the generator's own error, not queueing.
	late   time.Duration
	failed bool
}

// firstError keeps the first error reported by any sender and cancels the
// others.
type firstError struct {
	once   sync.Once
	err    error
	cancel context.CancelFunc
}

func (f *firstError) set(err error) {
	f.once.Do(func() { f.err = err; f.cancel() })
}

// openLoop plays a schedule on `senders` goroutines, one connection each.
// Operations are taken in due order by the first free sender, which waits
// for the due time when early. It returns one timing per operation, in
// schedule order, and stops at the first incorrect result.
func openLoop(ctx context.Context, clk clock, ops []op, senders int, exec execFunc) ([]timing, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := &firstError{cancel: cancel}
	out := make([]timing, len(ops))
	start := clk.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				due := start.Add(o.at)
				var late time.Duration
				if clk.Now().Before(due) {
					clk.SleepUntil(due)
					late = clk.Now().Sub(due)
				}
				done, failed, err := exec(s, o)
				out[i] = timing{kind: o.kind, latency: done.Sub(due), late: late, failed: failed}
				if err != nil {
					fe.set(err)
				}
			}
		}()
	}
	wg.Wait()
	if fe.err != nil {
		return nil, fe.err
	}
	return out, ctx.Err()
}

// closedLoop runs ops back to back on `senders` goroutines until dur has
// passed or the ops run out. It returns the completion offset of every
// operation that succeeded, how many failed, and how long the loop ran.
func closedLoop(ctx context.Context, clk clock, ops []op, senders int, dur time.Duration, exec execFunc) (done []time.Duration, failed int, elapsed time.Duration, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fe := &firstError{cancel: cancel}
	start := clk.Now()
	deadline := start.Add(dur)
	var next, nFailed atomic.Int64
	perSender := make([][]time.Duration, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && clk.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				done, f, err := exec(s, &ops[i])
				if err != nil {
					fe.set(err)
					return
				}
				if f {
					nFailed.Add(1)
				} else {
					perSender[s] = append(perSender[s], done.Sub(start))
				}
			}
		}()
	}
	wg.Wait()
	elapsed = clk.Now().Sub(start)
	if fe.err != nil {
		return nil, 0, elapsed, fe.err
	}
	for _, d := range perSender {
		done = append(done, d...)
	}
	return done, int(nFailed.Load()), elapsed, ctx.Err()
}
