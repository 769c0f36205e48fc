package sched

import (
	"sync"
	"testing"
	"time"
)

func TestQueueOrdersByDueThenPushOrder(t *testing.T) {
	q := NewQueue[string]()
	t0 := time.Unix(100, 0)
	q.Push(t0.Add(3*time.Second), "c")
	q.Push(t0.Add(1*time.Second), "a1")
	q.Push(t0.Add(2*time.Second), "b")
	q.Push(t0.Add(1*time.Second), "a2")
	var got []string
	for {
		v, _, ok := q.Next()
		if !ok {
			break
		}
		got = append(got, v)
		q.Done()
	}
	want := []string{"a1", "a2", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// A chain of operations, each pushing its successor, must run to the end on
// several workers: a worker that finds the queue empty has to wait for the
// busy one's follow-up instead of declaring the queue drained.
func TestRunFollowsChainsAndReportsLateness(t *testing.T) {
	q := NewQueue[int]()
	const chains, steps = 6, 5
	start := time.Now()
	for c := 0; c < chains; c++ {
		q.Push(start, c*100)
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	var early int
	Run(q, 2, func(v int, due time.Time, late time.Duration) {
		if time.Now().Before(due) {
			mu.Lock()
			early++
			mu.Unlock()
		}
		mu.Lock()
		seen[v/100]++
		mu.Unlock()
		if v%100+1 < steps {
			q.Push(time.Now().Add(2*time.Millisecond), v+1)
		}
	})
	if early != 0 {
		t.Errorf("%d operations ran before they were due", early)
	}
	for c := 0; c < chains; c++ {
		if seen[c] != steps {
			t.Errorf("chain %d ran %d steps, want %d", c, seen[c], steps)
		}
	}
	if _, _, ok := q.Next(); ok {
		t.Error("queue not drained after Run")
	}
}
