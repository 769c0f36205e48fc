// Package sched is the load generator's due-time scheduler: many virtual
// clients, each a chain of operations with a time at which the next one is
// due, are multiplexed over a fixed set of workers. Every operation is
// timed from the moment it was due, and how late a worker got to it is
// reported, so a saturated generator shows up in the numbers instead of
// silently thinning the load.
package sched

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/mpx"
)

type item[T any] struct {
	due time.Time
	seq uint64 // push order, so equal due times run first-come first-served
	val T
}

type itemHeap[T any] []item[T]

func (h itemHeap[T]) Len() int { return len(h) }
func (h itemHeap[T]) Less(i, j int) bool {
	if h[i].due.Equal(h[j].due) {
		return h[i].seq < h[j].seq
	}
	return h[i].due.Before(h[j].due)
}
func (h itemHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *itemHeap[T]) Push(x any)   { *h = append(*h, x.(item[T])) }
func (h *itemHeap[T]) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Queue orders pending operations by due time. Workers take the earliest
// one with Next, wait until it is due, run it (which may Push follow-ups),
// and call Done; Next reports drained once nothing is queued and no worker
// is still running an operation that could push more.
type Queue[T any] struct {
	mu   sync.Mutex
	wake *sync.Cond
	h    itemHeap[T]
	seq  uint64
	busy int
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] {
	q := &Queue[T]{}
	q.wake = sync.NewCond(&q.mu)
	return q
}

// Push schedules v to run at due.
func (q *Queue[T]) Push(due time.Time, v T) {
	q.mu.Lock()
	q.seq++
	heap.Push(&q.h, item[T]{due: due, seq: q.seq, val: v})
	q.mu.Unlock()
	q.wake.Signal()
}

// Next removes and returns the earliest-due operation, blocking while the
// queue is empty but another worker may still push. ok is false once the
// queue has drained. Every true return must be paired with Done.
func (q *Queue[T]) Next() (v T, due time.Time, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.h) == 0 {
		if q.busy == 0 {
			return v, due, false
		}
		q.wake.Wait()
	}
	it := heap.Pop(&q.h).(item[T])
	q.busy++
	return it.val, it.due, true
}

// Done marks the operation handed out by Next as finished.
func (q *Queue[T]) Done() {
	q.mu.Lock()
	q.busy--
	drained := q.busy == 0 && len(q.h) == 0
	q.mu.Unlock()
	if drained {
		q.wake.Broadcast()
	}
}

// Run drains q with the given number of workers and returns when it is
// empty. Each worker sleeps until its operation is due and calls do with
// how late it started (zero or more).
func Run[T any](q *Queue[T], workers int, do func(v T, due time.Time, late time.Duration)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		mpx.Go(&wg, func() {
			for {
				v, due, ok := q.Next()
				if !ok {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late := time.Since(due)
				if late < 0 {
					late = 0
				}
				do(v, due, late)
				q.Done()
			}
		})
	}
	wg.Wait()
}
