// Package machine models the parallel machine the application simulators
// run on. The paper's experiments use NERSC Cori (Cray XC40, dual 16-core
// Xeon E5-2698v3 Haswell nodes, Aries interconnect); since no such machine
// exists in this reproduction, application runtimes are produced by cost
// models parameterized by this package and driven by each application's true
// algorithmic counts (flops, messages, volumes, iteration counts).
//
// Runtime noise is modeled as a deterministic-per-attempt lognormal
// multiplier so experiments are reproducible yet repeated measurements of
// the same configuration genuinely differ (making the paper's min-of-3
// repeats meaningful).
package machine

import (
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/la"
)

// Machine holds the hardware parameters of the cost models.
type Machine struct {
	Name         string
	CoresPerNode int
	// FlopsPerCore is the peak double-precision rate per core (flop/s).
	FlopsPerCore float64
	// Latency is the network message latency α (seconds).
	Latency float64
	// Bandwidth is the per-link network bandwidth β (bytes/s).
	Bandwidth float64
	// MemBandwidth is the per-node memory bandwidth (bytes/s).
	MemBandwidth float64
}

// CoriHaswell returns parameters matching NERSC Cori's Haswell partition:
// 32 cores/node, 2.3 GHz × 16 DP flops/cycle, Aries interconnect.
func CoriHaswell() Machine {
	return Machine{
		Name:         "cori-haswell",
		CoresPerNode: 32,
		FlopsPerCore: 36.8e9,
		Latency:      1.5e-6,
		Bandwidth:    8e9,
		MemBandwidth: 120e9,
	}
}

// TimeFlops returns the time to execute flops floating point operations on
// p cores at the given efficiency ∈ (0, 1].
func (m Machine) TimeFlops(flops float64, p int, efficiency float64) float64 {
	if p < 1 {
		p = 1
	}
	if efficiency <= 0 {
		efficiency = 1e-3
	}
	return flops / (float64(p) * m.FlopsPerCore * efficiency)
}

// TimeComm returns the α-β model time for nMsg messages carrying volBytes in
// total: nMsg·α + volBytes/β.
func (m Machine) TimeComm(nMsg, volBytes float64) float64 {
	return nMsg*m.Latency + volBytes/m.Bandwidth
}

// Noise produces reproducible lognormal runtime noise. The k-th measurement
// of the same key receives the k-th multiplier of that key's deterministic
// sequence, so repeated runs of one configuration see different noise while
// whole experiments stay reproducible.
type Noise struct {
	// Sigma is the standard deviation of log-noise (e.g. 0.05 ≈ ±5%).
	Sigma float64
	// Seed decorrelates different applications.
	Seed uint64

	mu       sync.Mutex
	attempts map[string]uint64
}

// NewNoise returns a noise source with the given log-sigma.
func NewNoise(sigma float64, seed uint64) *Noise {
	return &Noise{Sigma: sigma, Seed: seed, attempts: make(map[string]uint64)}
}

// Mul returns the next multiplier (≥ ~e^{-3σ}, centered at 1) for key.
func (n *Noise) Mul(key string) float64 {
	if n == nil || n.Sigma <= 0 {
		return 1
	}
	n.mu.Lock()
	attempt := n.attempts[key]
	n.attempts[key] = attempt + 1
	n.mu.Unlock()
	return n.MulAt(key, attempt)
}

// MulAt returns the attempt-th multiplier of key's sequence without
// advancing the counter.
func (n *Noise) MulAt(key string, attempt uint64) float64 {
	if n == nil || n.Sigma <= 0 {
		return 1
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(n.Seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(key))
	for i := 0; i < 8; i++ {
		buf[i] = byte(attempt >> (8 * i))
	}
	h.Write(buf[:])
	u := h.Sum64()
	// Two uniforms from the hash → one standard normal via Box–Muller.
	u1 := float64(u>>11)/float64(1<<53) + 1e-16
	h.Write([]byte{0xA5})
	u2 := float64(h.Sum64()>>11) / float64(1<<53)
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return la.Exp(n.Sigma * z)
}

// Reset clears attempt counters (fresh measurement sequences).
func (n *Noise) Reset() {
	if n == nil {
		return
	}
	n.mu.Lock()
	n.attempts = make(map[string]uint64)
	n.mu.Unlock()
}
