package mpx

import (
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAll(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{100, 0}, {100, 1}, {100, 3}, {100, 16},
		{3, 8}, {1, 4}, // fewer indices than workers
	} {
		hits := make([]int32, c.n)
		ParallelFor(c.n, c.workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d workers=%d: index %d hit %d times", c.n, c.workers, i, h)
			}
		}
	}
	ParallelFor(0, 4, func(int) { t.Fatalf("fn called for n=0") })

	// Nested regions: each inner loop has its own cursor.
	const outer, inner = 7, 13
	hits := make([]int32, outer*inner)
	ParallelFor(outer, 3, func(i int) {
		ParallelFor(inner, 4, func(j int) { atomic.AddInt32(&hits[i*inner+j], 1) })
	})
	for k, h := range hits {
		if h != 1 {
			t.Fatalf("nested: index (%d, %d) hit %d times", k/inner, k%inner, h)
		}
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	g := NewGate(2)
	var cur, peak atomic.Int64
	ParallelFor(16, 8, func(i int) {
		g.Acquire()
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		cur.Add(-1)
		g.Release()
	})
	if p := peak.Load(); p > 2 {
		t.Fatalf("gate admitted %d concurrent holders, limit 2", p)
	}
	// A gate built with n < 1 still admits one holder (and releases).
	g1 := NewGate(0)
	g1.Acquire()
	g1.Release()
}
