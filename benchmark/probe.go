package main

import (
	"math"
	"sync"
	"time"

	"repro/benchmark/stats"
)

// cpuProbe measures how fast this machine's CPU is while a workload runs,
// so a timing can be told apart from the state of the box it was taken on.
// The benchmark runs on a small shared VM whose cores switch, for seconds
// to minutes at a time, between full speed and roughly 0.55 of it (a
// neighbour on the host); uncorrected, the same commit and seed read 30 %
// apart within the hour. The load generator therefore interleaves a fixed
// floating-point kernel — benchmark code, nothing of the program under
// test — with the operations it times. The mean kernel time over a phase,
// relative to the fastest the kernel ran during the whole run, is the
// slowdown the phase suffered, and the CPU-bound share of every timing
// clocked in that phase is divided by it. Safe for concurrent use.
type cpuProbe struct {
	mu   sync.Mutex
	ns   []float64
	sink float64
}

// probeKernel is a fixed amount of dense floating-point work on 18 KB of
// stack, three quarters of a millisecond at full speed: repeated
// elimination sweeps over a well-conditioned matrix. (A kernel a third as
// long read the cold start after a blocking network read, not the core.)
func probeKernel() float64 {
	const n = 48
	var a [n][n]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i][j] = 1 / float64(i+j+1)
		}
		a[i][i] += n
	}
	for r := 0; r < 48; r++ {
		for k := 0; k < n; k++ {
			for i := k + 1; i < n; i++ {
				f := a[i][k] / a[k][k] * 1e-3
				for j := k; j < n; j++ {
					a[i][j] -= f * a[k][j]
				}
			}
		}
	}
	return a[n-1][n-1]
}

// sample runs the kernel once on the calling goroutine and records how long
// it took.
func (p *cpuProbe) sample() {
	t0 := time.Now()
	v := probeKernel()
	d := float64(time.Since(t0).Nanoseconds())
	p.mu.Lock()
	p.ns = append(p.ns, d)
	p.sink += v
	p.mu.Unlock()
}

// mark returns the number of samples taken so far: the boundary of a phase.
func (p *cpuProbe) mark() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ns)
}

// phase is one timed stretch of a run — a set-up, the measured phase — with
// the probe samples taken during it.
type phase struct {
	seconds  float64
	from, to int // probe samples [from, to)
	// cpuShare is the part of the phase's clock that was CPU time and so
	// stretches with the slowdown; the rest — sleep, fsync, the loopback
	// network — does not.
	cpuShare float64
}

// cpuShareOf is the CPU-bound share of a phase that lasted seconds, during
// which drivers closed-loop clients waited on processes that used cpuS CPU
// seconds between them.
func cpuShareOf(cpuS, seconds float64, drivers int) float64 {
	return math.Min(1, cpuS/(seconds*float64(drivers)))
}

// slowdown is how much slower than its best the CPU ran during ph: the mean
// kernel time over the phase divided by the run's 5th-percentile kernel
// time. At least 1; exactly 1 for a phase without samples.
func (p *cpuProbe) slowdown(ph phase) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slowdownOf(p.ns, ph.from, ph.to)
}

// correction is what a duration clocked during ph is multiplied by (and a
// rate divided by) to undo the slowdown on its CPU-bound share.
func (p *cpuProbe) correction(ph phase) float64 {
	return ph.cpuShare/p.slowdown(ph) + 1 - ph.cpuShare
}

func slowdownOf(ns []float64, from, to int) float64 {
	if to <= from || len(ns) == 0 {
		return 1
	}
	fast := stats.Percentile(stats.Sorted(ns), 5)
	if s := stats.Mean(ns[from:to]) / fast; s > 1 {
		return s
	}
	return 1
}
