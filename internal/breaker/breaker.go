// Package breaker is the one circuit breaker of the tree: the closed → open →
// half-open machine the replica pool (internal/serve, per replica), the
// gateway (internal/gateway, per backend) and the crawler (internal/crawler,
// per origin host) each run over their own unit of failure.
package breaker

import (
	"sync"
	"time"
)

// ReadmitProbes is how many consecutive clean probes close a half-open serve
// replica or gateway backend. The crawler readmits a host on one.
const ReadmitProbes = 2

// State is a breaker's position in the machine.
type State int

const (
	// Closed: in rotation.
	Closed State = iota
	// Open: ejected; callers route around it until the cooldown elapses.
	Open
	// HalfOpen: cooled down; probes (and, where the call site lets them, live
	// requests) test it.
	HalfOpen
)

// String renders the state as both /metrics documents print it.
func (s State) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// Breaker tracks one unit's health: threshold consecutive failures open it
// (an ejection); after cooldown the next Allow flips it half-open, and probes
// consecutive successes close it again (a readmission). A failure while
// half-open re-opens it and restarts the cooldown without counting a second
// ejection, so over any quiesced interval ejections and readmissions pair up
// exactly. Counting them is the caller's, off the booleans Fail and Success
// return. It is safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	probes    int

	mu       sync.Mutex
	state    State
	fails    int // consecutive failures while closed
	probeOKs int // consecutive successes while half-open
	openedAt time.Time
}

// New returns a closed breaker.
func New(threshold int, cooldown time.Duration, probes int) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, probes: probes}
}

// Allow reports whether the unit may be tried now. An open breaker past its
// cooldown transitions to half-open and admits the caller as a probe.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		return true
	}
	if now.Sub(b.openedAt) < b.cooldown {
		return false
	}
	b.state = HalfOpen
	b.probeOKs = 0
	return true
}

// Success records a clean exchange. It reports true when this success closed
// a half-open breaker — a readmission. A success while open (an in-flight
// exchange that outlived the ejection) is ignored: readmission goes through
// the cooldown and probe sequence.
func (b *Breaker) Success() (readmitted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails = 0
	case HalfOpen:
		b.probeOKs++
		if b.probeOKs >= b.probes {
			b.state = Closed
			b.fails = 0
			return true
		}
	}
	return false
}

// Fail records a failed exchange. It reports true when this failure opened a
// closed breaker — an ejection. A half-open failure re-opens and restarts the
// cooldown without counting another ejection; a failure while open changes
// nothing.
func (b *Breaker) Fail(now time.Time) (ejected bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.threshold {
			b.state = Open
			b.openedAt = now
			return true
		}
	case HalfOpen:
		b.state = Open
		b.openedAt = now
	}
	return false
}

// State returns the current state. An open breaker reads as open until an
// Allow observes the elapsed cooldown.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
