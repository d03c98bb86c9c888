// Package dep exports Flush, whose ability to block travels to importing
// packages as a blockfacts Blocks fact.
package dep

// Flush drains ch until the producer closes it.
func Flush(ch chan int) int {
	total := 0
	for v := range ch {
		total += v
	}
	return total
}

// Size is trivially non-blocking.
func Size(xs []int) int { return len(xs) }

// Queue is a generic type whose Drain method blocks; DrainAll is a generic
// function that blocks through it. Callers reach both as instantiations, and
// the facts must still attach to these declarations.
type Queue[T any] struct{ ch chan T }

// Drain blocks until the producer closes the queue.
func (q *Queue[T]) Drain() (n int) {
	for range q.ch {
		n++
	}
	return n
}

// DrainAll drains every queue.
func DrainAll[T any](qs ...*Queue[T]) (n int) {
	for _, q := range qs {
		n += q.Drain()
	}
	return n
}
