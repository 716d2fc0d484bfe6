package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is virtual time: sleeping jumps to the wake time, and an
// operation's service time is an explicit advance.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.t) {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// A stalled request must inflate the latency of the requests queued behind
// it, because latency counts from when a request was due, not sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ops := []op{{at: 0}, {at: 10 * time.Millisecond}, {at: 20 * time.Millisecond}, {at: 100 * time.Millisecond}}
	service := []time.Duration{50 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	exec := func(_ int, o *op) (time.Time, bool, error) {
		for i := range ops {
			if &ops[i] == o {
				return clk.advance(service[i]), false, nil
			}
		}
		t.Fatal("unknown op")
		return time.Time{}, false, nil
	}
	got, err := openLoop(context.Background(), clk, ops, 1, exec)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		50 * time.Millisecond, // the stall itself
		41 * time.Millisecond, // due at 10, sent at 50 behind the stall, done at 51
		32 * time.Millisecond, // due at 20, sent at 51, done at 52
		1 * time.Millisecond,  // due at 100 on an idle sender
	}
	for i, w := range want {
		if got[i].latency != w {
			t.Errorf("op %d latency = %v, want %v", i, got[i].latency, w)
		}
		if got[i].late != 0 {
			t.Errorf("op %d late = %v, want 0: a sender busy with earlier work is queueing, not generator lateness", i, got[i].late)
		}
	}
}

func TestOpenLoopStopsAtFirstWrongAnswer(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ops := make([]op, 50)
	calls := 0
	exec := func(int, *op) (time.Time, bool, error) {
		calls++
		if calls == 3 {
			return clk.Now(), false, context.DeadlineExceeded
		}
		return clk.advance(time.Millisecond), false, nil
	}
	if _, err := openLoop(context.Background(), clk, ops, 1, exec); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want the operation's error", err)
	}
	if calls != 3 {
		t.Errorf("%d operations ran, want the run to stop after the third", calls)
	}
}

func TestClosedLoopCountsCompletions(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	ops := make([]op, 1000)
	n := 0
	exec := func(int, *op) (time.Time, bool, error) {
		n++
		return clk.advance(10 * time.Millisecond), n%4 == 0, nil
	}
	done, failed, elapsed, err := closedLoop(context.Background(), clk, ops, 1, time.Second, exec)
	if err != nil {
		t.Fatal(err)
	}
	if len(done)+failed != 100 || failed != 25 || elapsed != time.Second {
		t.Errorf("done %d, failed %d, elapsed %v; want 75, 25, 1s", len(done), failed, elapsed)
	}
}
