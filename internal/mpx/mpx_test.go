package mpx

import (
	"sync/atomic"
	"testing"
)

func TestParallelForCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		hits := make([]int32, n)
		ParallelFor(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	ParallelFor(0, 4, func(int) { t.Fatalf("fn called for n=0") })
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
