// Package scalapack simulates the two ScaLAPACK routines tuned in the paper
// (Section 6.2): PDGEQRF (dense QR factorization) and PDSYEVX (dense
// symmetric eigensolver).
//
// Substitution note (see DESIGN.md): the real routines ran on NERSC Cori.
// Here runtime is produced by the communication-optimal QR cost model the
// paper itself uses as its Section 3.3 performance model — Eqs. (8)–(10)
// from Demmel et al. 2012 — combined with a BLAS-3 block-size efficiency
// curve, 2D-process-grid load imbalance, thread scaling for the cores not
// used by MPI ranks, and reproducible lognormal measurement noise. These
// terms give the objective surface the same tuning structure (interior
// block-size optimum, process-grid aspect valleys, p vs nthreads tradeoff)
// that the tuner must navigate on the real machine.
package scalapack

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/space"
)

// QR simulates PDGEQRF with task t = [m, n] and tuning x = [b, p, p_r]
// (b = b_r = b_c; Table 2 lists β = 3).
type QR struct {
	Machine machine.Machine
	// PMax is the fixed total core count (the paper uses up to 64 Cori
	// nodes = 2048 cores).
	PMax int
	// MaxDim bounds task parameters m, n.
	MaxDim int
	// Noise adds reproducible lognormal measurement noise (σ≈0.05); nil
	// disables it.
	Noise *machine.Noise
}

// NewQR returns the PDGEQRF simulator on nodes Cori-Haswell nodes.
func NewQR(nodes int, maxDim int) *QR {
	m := machine.CoriHaswell()
	return &QR{
		Machine: m,
		PMax:    nodes * m.CoresPerNode,
		MaxDim:  maxDim,
		Noise:   machine.NewNoise(0.05, 0x9f2c),
	}
}

// Counts evaluates the paper's Eqs. (8)–(10): per-process flop count,
// message count and communication volume (in words) for an m×n QR on a
// p_r×p_c grid with block size b. The Eq. (8) leading term is written as
// 2n²(3m−n)/(3p), matching the 2mn²−2n³/3 total QR flop count.
func Counts(m, n float64, b, p, pr int) (cflop, cmsg, cvol float64) {
	if n > m {
		m, n = n, m // QR formulas assume m ≥ n; LQ of the transpose otherwise
	}
	pc := p / pr
	if pc < 1 {
		pc = 1
	}
	fb := float64(b)
	fp := float64(p)
	fpr := float64(pr)
	fpc := float64(pc)
	logPr := math.Log2(math.Max(fpr, 2))
	logPc := math.Log2(math.Max(fpc, 2))

	cflop = 2*n*n*(3*m-n)/(3*fp) +
		fb*n*n/(2*fpc) +
		3*fb*n*(2*m-n)/(2*fpr) +
		fb*fb*n/(3*fpr)
	cmsg = 3*n*logPr + 2*n/fb*logPc
	cvol = (n*n/fpc+fb*n)*logPr + (m*n-n*n/2)/fpr*logPc + fb*n/2*logPc
	return cflop, cmsg, cvol
}

// blas3Efficiency models DGEMM efficiency as a function of block size: small
// blocks underuse the cache and vector units, very large blocks thrash the
// cache, giving an interior optimum near b ≈ 128–192.
func blas3Efficiency(b int) float64 {
	fb := float64(b)
	return 0.82 * (fb / (fb + 40)) / (1 + (fb/420)*(fb/420))
}

// threadEfficiency models multithreaded BLAS scaling for nt threads per MPI
// rank (sublinear: 0.9 exponent).
func threadEfficiency(nt int) float64 {
	if nt < 1 {
		nt = 1
	}
	return la.Pow(float64(nt), 0.9)
}

// imbalance grows when the block-cyclic tiles are too coarse for the grid.
func imbalance(m, n float64, b, pr, pc int) float64 {
	return (1 + float64(b)*float64(pr)/m) * (1 + float64(b)*float64(pc)/n)
}

// Runtime returns the noise-free simulated PDGEQRF time in seconds.
func (q *QR) Runtime(m, n float64, b, p, pr int) float64 {
	if p < 1 {
		p = 1
	}
	if pr < 1 {
		pr = 1
	}
	if pr > p {
		pr = p
	}
	pc := p / pr
	if pc < 1 {
		pc = 1
	}
	nt := q.PMax / p
	if nt < 1 {
		nt = 1
	}
	cflop, cmsg, cvol := Counts(m, n, b, p, pr)
	rate := q.Machine.FlopsPerCore * blas3Efficiency(b) * threadEfficiency(nt)
	tFlop := cflop / rate * imbalance(m, n, b, pr, pc)
	tComm := q.Machine.TimeComm(cmsg, cvol*8)
	return tFlop + tComm + 0.05 // constant launch overhead
}

// Problem returns the PDGEQRF tuning problem. Task = [m, n]; tuning =
// [b, p, p_r] with the paper's constraint p_r ≤ p.
func (q *QR) Problem() *core.Problem {
	tasks := space.MustNew(
		space.NewInteger("m", 1000, q.MaxDim),
		space.NewInteger("n", 1000, q.MaxDim),
	)
	tuning := space.MustNew(
		space.NewLogInteger("b", 8, 512),
		space.NewLogInteger("p", maxInt(1, q.PMax/64), q.PMax),
		space.NewLogInteger("pr", 1, q.PMax),
	)
	pr, p := tuning.IndexOf("pr"), tuning.IndexOf("p")
	tuning.AddConstraint("pr<=p", func(x []float64) bool { return x[pr] <= x[p] })
	return &core.Problem{
		Name:    "pdgeqrf",
		Tasks:   tasks,
		Tuning:  tuning,
		Outputs: space.NewOutputSpace("runtime"),
		Objective: func(task, x []float64) ([]float64, error) {
			m, n := task[0], task[1]
			b, p, pr := int(x[0]), int(x[1]), int(x[2])
			t := q.Runtime(m, n, b, p, pr)
			key := fmt.Sprintf("qr|%g|%g|%d|%d|%d", m, n, b, p, pr)
			return []float64{t * q.Noise.Mul(key)}, nil
		},
	}
}

// PerfModel returns the Section 3.3 coarse performance model of Eq. (7):
// ỹ = C_flop·t_flop + C_msg·t_msg + C_vol·t_vol with the three coefficients
// as tunable hyperparameters (fitted on the fly during MLA). The initial
// coefficients are order-of-magnitude machine guesses, deliberately
// imperfect.
func (q *QR) PerfModel() *core.PerfModel {
	return &core.PerfModel{
		Dim:    1,
		Coeffs: []float64{1 / q.Machine.FlopsPerCore, q.Machine.Latency, 8 / q.Machine.Bandwidth},
		Eval: func(task, x, coeffs []float64) []float64 {
			cflop, cmsg, cvol := Counts(task[0], task[1], int(x[0]), int(x[1]), int(x[2]))
			return []float64{cflop*coeffs[0] + cmsg*coeffs[1] + cvol*coeffs[2]}
		},
	}
}

// TotalFlops returns the m×n QR flop count 2n²(m − n/3) (used to sort tasks
// in Fig. 5).
func TotalFlops(m, n float64) float64 {
	if n > m {
		m, n = n, m
	}
	return 2 * n * n * (m - n/3)
}

// Eigen simulates PDSYEVX with task t = [m] (m = n) and tuning x =
// [b, p, p_r] (b_r = b_c enforced, per Section 6.2).
type Eigen struct {
	Machine machine.Machine
	PMax    int
	MaxDim  int
	Noise   *machine.Noise
}

// NewEigen returns the PDSYEVX simulator on nodes Cori-Haswell nodes.
func NewEigen(nodes int, maxDim int) *Eigen {
	m := machine.CoriHaswell()
	return &Eigen{
		Machine: m,
		PMax:    nodes * m.CoresPerNode,
		MaxDim:  maxDim,
		Noise:   machine.NewNoise(0.05, 0x51ab),
	}
}

// Runtime returns the noise-free simulated PDSYEVX time: Householder
// tridiagonalization (4/3 m³, half memory-bound BLAS-2, half BLAS-3),
// bisection + inverse iteration (O(m²)), and eigenvector back-transform
// (2m³ BLAS-3), with communication and imbalance terms.
func (e *Eigen) Runtime(m float64, b, p, pr int) float64 {
	if p < 1 {
		p = 1
	}
	if pr < 1 {
		pr = 1
	}
	if pr > p {
		pr = p
	}
	pc := p / pr
	if pc < 1 {
		pc = 1
	}
	nt := e.PMax / p
	if nt < 1 {
		nt = 1
	}
	rate3 := e.Machine.FlopsPerCore * blas3Efficiency(b) * threadEfficiency(nt)
	// BLAS-2 half runs at memory bandwidth: bytes ≈ flops × 8 / 2.
	rate2 := math.Min(e.Machine.FlopsPerCore*0.06*threadEfficiency(nt),
		e.Machine.MemBandwidth/4)
	m3 := m * m * m
	fp := float64(p)
	tTridiag := (2.0 / 3 * m3 / fp / rate2) + (2.0 / 3 * m3 / fp / rate3)
	tBack := 2 * m3 / fp / rate3
	tFlop := (tTridiag + tBack) * imbalance(m, m, b, pr, pc)
	logP := math.Log2(math.Max(float64(p), 2))
	cmsg := 6 * m / float64(b) * logP
	cvol := 3 * m * m / math.Sqrt(fp) * logP
	tComm := e.Machine.TimeComm(cmsg, cvol*8)
	tBisect := 20 * m * m / fp / (e.Machine.FlopsPerCore * 0.05)
	return tFlop + tComm + tBisect + 0.05
}

// Problem returns the PDSYEVX tuning problem.
func (e *Eigen) Problem() *core.Problem {
	tasks := space.MustNew(space.NewInteger("m", 1000, e.MaxDim))
	tuning := space.MustNew(
		space.NewLogInteger("b", 8, 512),
		space.NewLogInteger("p", maxInt(1, e.PMax/64), e.PMax),
		space.NewLogInteger("pr", 1, e.PMax),
	)
	pr, p := tuning.IndexOf("pr"), tuning.IndexOf("p")
	tuning.AddConstraint("pr<=p", func(x []float64) bool { return x[pr] <= x[p] })
	return &core.Problem{
		Name:    "pdsyevx",
		Tasks:   tasks,
		Tuning:  tuning,
		Outputs: space.NewOutputSpace("runtime"),
		Objective: func(task, x []float64) ([]float64, error) {
			m := task[0]
			b, p, pr := int(x[0]), int(x[1]), int(x[2])
			t := e.Runtime(m, b, p, pr)
			key := fmt.Sprintf("ev|%g|%d|%d|%d", m, b, p, pr)
			return []float64{t * e.Noise.Mul(key)}, nil
		},
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
