package briefcache

import (
	"context"
	"sync/atomic"
	"time"
)

// Flight coalesces concurrent computations of one cold content key: the
// first caller to Begin a key becomes the winner and computes the
// briefing; every later caller becomes a loser and Waits for the winner's
// result instead of checking out a replica of its own. A thundering herd
// on a cold key therefore computes exactly once.
//
// The winner must settle the flight exactly once, with Complete (publish a
// result to the waiters) or Abandon (the winner could not finish — its own
// deadline expired, or it was shed by admission control; waiters should
// retry). Settling is idempotent, so a deferred Abandon is a safe backstop
// behind a Complete on the success path.
type Flight struct {
	c       *Cache
	key     Key
	done    chan struct{}
	settled atomic.Bool

	// Written by the winner before close(done); read by waiters after.
	val       any
	abandoned bool
}

// landed is the flight BeginFlight hands a caller whose key's briefing is
// already cached — its lookup missed just before the last flight for the key
// landed. It is settled as abandoned, which tells the caller to retry the
// lookup, and so it never computes the briefing a second time.
var landed = func() *Flight {
	f := &Flight{done: make(chan struct{}), abandoned: true}
	f.settled.Store(true)
	close(f.done)
	return f
}()

// BeginFlight joins the in-flight computation for a content key, creating
// it if none exists and the key's briefing is not cached. The second result
// is true for the winner (the caller that must compute and settle) and false
// for losers (who should Wait).
func (c *Cache) BeginFlight(key Key) (*Flight, bool) {
	now := time.Now().UnixNano()
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f, false
	}
	if e := c.live(key, now); e != nil && e.content == key {
		return landed, false
	}
	f := &Flight{c: c, key: key, done: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// settle publishes the outcome and wakes every waiter, exactly once.
func (f *Flight) settle(val any, abandoned bool) {
	if !f.settled.CompareAndSwap(false, true) {
		return
	}
	f.c.mu.Lock()
	delete(f.c.flights, f.key)
	f.c.mu.Unlock()
	f.val = val
	f.abandoned = abandoned
	close(f.done)
}

// Complete publishes the winner's result to every waiter. val is opaque to
// the cache — the serving layer passes its response bytes or terminal
// outcome.
func (f *Flight) Complete(val any) { f.settle(val, false) }

// Abandon wakes waiters with no result; each should retry the lookup
// (typically coalescing onto a new flight). A no-op after Complete, so it
// can back-stop every winner exit path.
func (f *Flight) Abandon() { f.settle(nil, true) }

// Wait blocks until the flight settles or ctx is done. It returns the
// published value, whether the flight was abandoned, and ctx's error if
// the caller's own deadline won the race — losers honor their own
// deadlines, not the winner's.
func (f *Flight) Wait(ctx context.Context) (val any, abandoned bool, err error) {
	select {
	case <-f.done:
		return f.val, f.abandoned, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}
