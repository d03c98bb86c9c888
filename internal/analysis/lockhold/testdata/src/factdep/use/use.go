// Package use holds a lock across a call into dep; whether that is flagged
// depends entirely on the Blocks fact dep exported — nothing in this
// package blocks directly.
package use

import (
	"sync"

	"webbrief/internal/analysis/lockhold/testdata/src/factdep/dep"
)

type S struct {
	mu sync.Mutex
	ch chan int
	n  int
}

// BadFlushLocked calls the imported blocker with the lock held.
func (s *S) BadFlushLocked() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n = dep.Flush(s.ch) // want "held across calls Flush"
}

// GoodSizeLocked calls an imported non-blocker with the lock held.
func (s *S) GoodSizeLocked(xs []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n = dep.Size(xs)
}

// BadGenericLocked reaches imported blockers through an instantiated method,
// an inferred generic call and an explicitly instantiated one.
func (s *S) BadGenericLocked(q *dep.Queue[int]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n = q.Drain()           // want "held across calls Drain"
	s.n = dep.DrainAll(q)     // want "held across calls DrainAll"
	s.n = dep.DrainAll[int]() // want "held across calls DrainAll"
}
