// Package mpx holds the tuner's goroutine runtime: every goroutine the
// system starts goes through one of the helpers here, so each one has a
// bounded lifetime and a join point (gptlint's no-stray-goroutines rule
// enforces this). The paper's driver parallelizes objective evaluations,
// modeling-phase random starts and per-task search across MPI process groups
// (Section 4); here those are ParallelFor / ParallelChunks worker pools over
// shared memory, Gate bounds how many studies model at once, and Go runs the
// engine's one supervised background generator.
package mpx

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Gate bounds how many holders may be inside a region at once — a counting
// semaphore. The tuning service shares one Gate across every study's engine
// so that concurrent studies cannot oversubscribe the machine with parallel
// modeling phases; each engine still parallelizes internally via its own
// Workers option once it holds the gate.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a gate admitting up to n concurrent holders (min 1).
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free and takes it.
func (g *Gate) Acquire() { g.slots <- struct{}{} }

// Release frees a slot taken by Acquire.
func (g *Gate) Release() { <-g.slots }

// Go runs fn on its own goroutine, registered with wg before the goroutine
// starts and marked done when fn returns, so the owner can always join it
// with wg.Wait. This is the sanctioned way to run a supervised background
// task outside a worker pool — the engine's batch generator uses it so a
// shutting-down service can wait out an in-flight surrogate fit.
func Go(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
	}()
}

// ParallelFor runs fn(i) for i ∈ [0, n) on up to workers goroutines and
// blocks until all complete. workers ≤ 1 runs inline.
func ParallelFor(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Workers claim indices from one shared cursor until it passes n.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ParallelChunks splits [0, n) into fixed-size chunks of chunk elements and
// runs fn(chunkIndex, lo, hi) for each on up to workers goroutines. The
// partition depends only on n and chunk — never on workers — so callers that
// keep per-chunk accumulators and merge them in chunk-index order get
// bitwise-identical results for every worker count. This is the backbone of
// the deterministic parallel reductions in the modeling phase (Section 4.3).
func ParallelChunks(n, chunk, workers int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nc := (n + chunk - 1) / chunk
	// Chunk reductions are pure CPU: more workers than GOMAXPROCS only adds
	// scheduling overhead (the result is worker-count independent anyway).
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	ParallelFor(nc, workers, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(c, lo, hi)
	})
}

// NumChunks returns the chunk count ParallelChunks uses for (n, chunk).
func NumChunks(n, chunk int) int {
	if n <= 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = 1
	}
	return (n + chunk - 1) / chunk
}
