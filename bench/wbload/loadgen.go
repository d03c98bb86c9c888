package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the generator's view of time, so the open-loop scheduler can be
// tested under a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// SleepUntil sleeps to just short of t and yields the rest of the way: a
// timer alone overshoots by a scheduler quantum when every core is busy.
func (realClock) SleepUntil(t time.Time) {
	time.Sleep(time.Until(t) - 300*time.Microsecond)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// timing is the generator's record of one request.
type timing struct {
	index   int
	at      time.Duration // offset into the run of the instant latency counts from
	latency time.Duration // closed loop: from the send; open loop: from the due instant
	slept   bool          // open loop: the worker was idle and waited for the due instant
	late    time.Duration // open loop, slept only: timer overshoot, wake-up minus due
}

// runLoad drives do over request indices 0, 1, 2, … from the given number
// of workers, each a client with one connection.
//
// Closed loop (due == nil): a worker sends its next request as soon as its
// previous one completes, until the window has passed.
//
// Open loop: request i is due at start+due[i]. A free worker claims the
// next arrival and sleeps until it is due; if every worker is busy when an
// arrival falls due it waits in the generator, and because latency is
// timed from the due instant that wait counts. Lateness is recorded only
// when the worker slept: it is the generator's own timer overshoot, not
// time spent waiting for a free connection.
//
// idle, when not nil, is called by a closed-loop worker between requests,
// off the clock: the host-speed calibration (calib.go) runs there.
func runLoad(clk clock, workers int, window time.Duration, due []time.Duration, do func(i int), idle func()) ([]timing, time.Duration) {
	start := clk.Now()
	var next atomic.Int64
	perWorker := make([][]timing, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t := timing{index: int(next.Add(1)) - 1}
				var from time.Time
				if due == nil {
					if idle != nil {
						idle()
					}
					from = clk.Now()
					if from.Sub(start) >= window {
						return
					}
				} else {
					if t.index >= len(due) {
						return
					}
					from = start.Add(due[t.index])
					if clk.Now().Before(from) {
						clk.SleepUntil(from)
						t.slept = true
						t.late = clk.Now().Sub(from)
					}
				}
				do(t.index)
				t.at, t.latency = from.Sub(start), clk.Now().Sub(from)
				perWorker[w] = append(perWorker[w], t)
			}
		}(w)
	}
	wg.Wait()
	elapsed := clk.Now().Sub(start)
	var all []timing
	for _, ts := range perWorker {
		all = append(all, ts...)
	}
	return all, elapsed
}

// uniqueResponse is the stored 200 body of a request whose bytes no other
// request shares.
type uniqueResponse struct {
	index int
	body  []byte
}

// client posts a sequence's requests and checks the cheap half of the
// correctness oracle inline: every response is a 200, and responses for
// identical page bytes are byte-identical. Bodies are kept once per
// distinct request for the off-clock half (oracle.go).
type client struct {
	http *http.Client
	base string
	seq  *sequence

	first  []atomic.Pointer[[]byte] // per universe page: the first 200 body seen
	mu     sync.Mutex
	unique []uniqueResponse
	errs   []string // first few failures, for the report

	failed atomic.Int64
}

func newClient(target string, conns int, seq *sequence) *client {
	return &client{
		http: &http.Client{
			Timeout: 20 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
		base:  "http://" + target,
		seq:   seq,
		first: make([]atomic.Pointer[[]byte], len(seq.pages)),
	}
}

func (c *client) fail(i int, format string, args ...any) {
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("request %d: ", i)+fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// do posts request i and verifies its response.
func (c *client) do(i int) {
	r := c.seq.at(i)
	resp, err := c.http.Post(c.base+r.path, "text/html", strings.NewReader(r.body))
	if err != nil {
		c.fail(i, "%v", err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.fail(i, "read response: %v", err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.fail(i, "status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	if r.page < 0 {
		c.mu.Lock()
		c.unique = append(c.unique, uniqueResponse{i, body})
		c.mu.Unlock()
		return
	}
	if c.first[r.page].CompareAndSwap(nil, &body) {
		return
	}
	if !bytes.Equal(*c.first[r.page].Load(), body) {
		c.fail(i, "response differs from an earlier response for the same page bytes")
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }
