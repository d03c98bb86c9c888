// Package a is the lockhold fixture: locks held (and not held) across
// blocking operations.
package a

import (
	"net"
	"sync"
)

type Q struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	ch    chan int
	wg    sync.WaitGroup
	count int
}

// BadRecvLocked receives on a channel with the mutex held.
func (q *Q) BadRecvLocked() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return <-q.ch // want "q.mu held across channel receive"
}

// BadWaitLocked waits on a WaitGroup with the mutex held.
func (q *Q) BadWaitLocked() {
	q.mu.Lock()
	q.wg.Wait() // want "held across sync.WaitGroup.Wait"
	q.mu.Unlock()
}

// BadTransitive blocks through a same-package callee whose summary comes
// from blockfacts.
func (q *Q) BadTransitive() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.flush() // want "held across calls flush"
}

// BadReadLocked shows RWMutex read locks are tracked too.
func (q *Q) BadReadLocked() {
	q.rw.RLock()
	q.ch <- 1 // want "q.rw held across channel send"
	q.rw.RUnlock()
}

// BadDialLocked opens a connection with the mutex held: an idle-connection
// stack that dials its miss under the stack's lock, so one slow dial stalls
// every caller of the stack. No test catches this shape at its live site
// (the gateway's upstream.acquire dialing under u.mu); this pass does.
func (q *Q) BadDialLocked(addr string, idle []net.Conn) (net.Conn, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := len(idle); n > 0 {
		return idle[n-1], nil
	}
	return net.Dial("tcp", addr) // want "q.mu held across net.Dial"
}

func (q *Q) flush() {
	for range q.ch {
	}
}

// GoodUnlockFirst releases before blocking.
func (q *Q) GoodUnlockFirst() {
	q.mu.Lock()
	q.count++
	q.mu.Unlock()
	<-q.ch
}

// GoodBranchScoped: the lock lives entirely in one arm; the blocking op in
// the other arm runs unlocked.
func (q *Q) GoodBranchScoped(v int) {
	if v > 0 {
		q.mu.Lock()
		q.count = v
		q.mu.Unlock()
	} else {
		<-q.ch
	}
}

// GoodPollLocked: a select with default cannot block.
func (q *Q) GoodPollLocked() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case v := <-q.ch:
		q.count = v
		return true
	default:
		return false
	}
}

// GoodPlainWork holds the lock over non-blocking work only.
func (q *Q) GoodPlainWork() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.count++
}
