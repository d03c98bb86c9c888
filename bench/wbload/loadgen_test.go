package main

import (
	"testing"
	"time"
)

// fakeClock is driven by the test: sleeping jumps to the wake-up instant
// plus a fixed timer overshoot, and the request function advances it by
// the service time. With one worker everything runs on one goroutine.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
}

func (c *fakeClock) Now() time.Time         { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) { c.now = t.Add(c.overshoot) }

const ms = time.Millisecond

// TestOpenLoopTimesFromDue: latency runs from the due instant, so a request
// that fell due while the worker was busy is charged its wait; lateness is
// the timer overshoot and is recorded only when the worker slept.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), overshoot: 1 * ms}
	due := []time.Duration{0, 10 * ms, 12 * ms, 50 * ms}
	var sent []int
	do := func(i int) {
		sent = append(sent, i)
		clk.now = clk.now.Add(5 * ms)
	}
	got, elapsed := runLoad(clk, 1, 0, due, do, nil)
	want := []timing{
		{index: 0, latency: 5 * ms},                                         // due at the start: sent at once
		{index: 1, at: 10 * ms, latency: 6 * ms, slept: true, late: 1 * ms}, // woke 1 ms late, 5 ms service
		{index: 2, at: 12 * ms, latency: 9 * ms},                            // due at 12 while busy until 16: 4 ms wait counts
		{index: 3, at: 50 * ms, latency: 6 * ms, slept: true, late: 1 * ms},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d timings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("timing %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if elapsed != 56*ms {
		t.Errorf("elapsed = %v, want 56ms", elapsed)
	}
	if len(sent) != 4 {
		t.Errorf("sent %v, want each arrival once", sent)
	}
}

// TestClosedLoopStopsAtWindow: a closed-loop worker sends back to back and
// stops once the window has passed; latency runs from the send.
func TestClosedLoopStopsAtWindow(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	do := func(int) { clk.now = clk.now.Add(4 * ms) }
	// The idle hook runs between requests and its time is on nobody's clock:
	// a millisecond of it per request stretches the run, not the latencies.
	idle := func() { clk.now = clk.now.Add(1 * ms) }
	got, elapsed := runLoad(clk, 1, 10*ms, nil, do, idle)
	if len(got) != 2 || elapsed != 11*ms {
		t.Fatalf("got %d requests in %v, want 2 in 11ms (sends at 1 and 6 ms, stop at 11)", len(got), elapsed)
	}
	for i, g := range got {
		if g.index != i || g.at != time.Duration(1+5*i)*ms || g.latency != 4*ms || g.slept {
			t.Errorf("timing %d = %+v", i, g)
		}
	}
}
