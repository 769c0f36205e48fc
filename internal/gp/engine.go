package gp

import (
	"math"

	"repro/internal/la"
	"repro/internal/mpx"
)

// gradChunkRows is the fixed row-chunk size of the parallel kernel and
// gradient sweeps. It must never depend on the worker count: per-chunk
// partial sums are merged in chunk-index order, which keeps every reduction
// bitwise identical for any FitOptions.Workers (the regression guard
// TestFitLCMParallelWorkersAgree relies on this).
const gradChunkRows = 32

// lcmEngine evaluates the LCM log marginal likelihood and its analytic
// gradient against a fixed dataset. It is the hot path of the modeling
// phase: one L-BFGS restart performs ~100 evaluations, and the paper's
// Table 3 shows this phase dominating GPTune's overhead as n·δ grows.
//
// Versus the naive evaluation (kept in reference_test.go as the test
// oracle), the engine
//   - reads every pairwise distance from a pairCache computed once per
//     FitLCM call instead of re-touching the raw coordinates,
//   - sweeps only the upper triangle (r ≤ s), exploiting the symmetry of
//     both Σ and the gradient contractions,
//   - reduces the a/b/d gradients to per-task-block sums (δ² per latent)
//     instead of scattering into the gradient vector per sample pair, and
//   - distributes kernel assembly, the gradient sweep, the blocked Cholesky
//     and the inverse over Workers goroutines.
//
// One engine serves one goroutine (the scratch buffers are reused across
// evaluations); the pairCache is shared read-only by all engines.
type lcmEngine struct {
	layout  hyperLayout
	cache   *pairCache
	taskOf  []int
	yn      []float64
	workers int

	// Reusable scratch, sized once at construction.
	kq     []float64   // [npairs*Q] pair-major kernel values k_q(x_r, x_s)
	sigma  *la.Matrix  // assembled covariance
	invWT  *la.Matrix  // W = L⁻¹ scratch for the inverse
	invBuf *la.Matrix  // Σ⁻¹ output scratch
	coef   [][]float64 // [q][tasks*tasks]: a_qi·a_qj (+ b_qi when i = j)
	winv   [][]float64 // [q][dim]: 1/l²
	grad   []float64   // gradient output buffer

	// Per-chunk partial accumulators, merged serially in chunk order.
	chunkV    [][]float64 // [chunk][Q*T*T]: Σ_{r<s} mm·k_q per (q, t_r, t_s)
	chunkGL   [][]float64 // [chunk][Q*dim]: Σ_{r<s} mm·coef·k_q·sq_d
	chunkDsum [][]float64 // [chunk][T]: Σ_r mm_rr per task
	chunkEq   [][]float64 // [chunk][Q] per-pair scratch
}

func newLCMEngine(cache *pairCache, layout hyperLayout, taskOf []int, yn []float64, workers int) *lcmEngine {
	e := &lcmEngine{
		layout:  layout,
		cache:   cache,
		taskOf:  taskOf,
		yn:      yn,
		workers: workers,
		kq:      make([]float64, cache.npairs*layout.q),
		sigma:   la.NewMatrix(cache.n, cache.n),
		invWT:   la.NewMatrix(cache.n, cache.n),
		invBuf:  la.NewMatrix(cache.n, cache.n),
		coef:    make([][]float64, layout.q),
		winv:    make([][]float64, layout.q),
		grad:    make([]float64, layout.total()),
	}
	for q := 0; q < layout.q; q++ {
		e.coef[q] = make([]float64, layout.tasks*layout.tasks)
		e.winv[q] = make([]float64, layout.dim)
	}
	nc := mpx.NumChunks(cache.n, gradChunkRows)
	e.chunkV = make([][]float64, nc)
	e.chunkGL = make([][]float64, nc)
	e.chunkDsum = make([][]float64, nc)
	e.chunkEq = make([][]float64, nc)
	for c := 0; c < nc; c++ {
		e.chunkV[c] = make([]float64, layout.q*layout.tasks*layout.tasks)
		e.chunkGL[c] = make([]float64, layout.q*layout.dim)
		e.chunkDsum[c] = make([]float64, layout.tasks)
		e.chunkEq[c] = make([]float64, layout.q)
	}
	return e
}

// prepare fills the per-latent coefficient tables C_q[i][j] = a_qi·a_qj
// (+ b_qi on the diagonal) and inverse-square lengthscales for model m.
func (e *lcmEngine) prepare(m *LCM) {
	T := e.layout.tasks
	for q := 0; q < e.layout.q; q++ {
		cq := e.coef[q]
		for ti := 0; ti < T; ti++ {
			for tj := 0; tj < T; tj++ {
				cq[ti*T+tj] = m.coef(q, ti, tj)
			}
		}
		for d := 0; d < e.layout.dim; d++ {
			e.winv[q][d] = 1 / (m.Ls[q][d] * m.Ls[q][d])
		}
	}
}

// assembleSigma computes all latent kernels k_q and the Eq. (4) covariance Σ
// in one parallel pass over the cached distance tensor. prepare(m) must have
// been called. The kernels stay in e.kq for the gradient sweep.
func (e *lcmEngine) assembleSigma(m *LCM) *la.Matrix {
	n := e.cache.n
	Q := e.layout.q
	T := e.layout.tasks
	dim := e.layout.dim
	sigma := e.sigma
	sqAll := e.cache.sq
	kqAll := e.kq
	mpx.ParallelChunks(n, gradChunkRows, e.workers, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			tr := e.taskOf[r]
			trT := tr * T
			dr := m.D[tr]
			sigRow := sigma.Data[r*n : (r+1)*n]
			// Pairs (r, r..n-1) are contiguous in the packed layout; walk
			// them with running offsets instead of re-deriving slices.
			pp := e.cache.pairStart(r)
			sqOff := pp * dim
			kqOff := pp * Q
			for s := r; s < n; s++ {
				ts := e.taskOf[s]
				v := 0.0
				for q := 0; q < Q; q++ {
					w := e.winv[q]
					acc := 0.0
					for d := 0; d < dim; d++ {
						acc += w[d] * sqAll[sqOff+d]
					}
					k := math.Exp(-0.5 * acc)
					kqAll[kqOff+q] = k
					v += e.coef[q][trT+ts] * k
				}
				if r == s {
					v += dr
				}
				sigRow[s] = v
				sigma.Data[s*n+r] = v
				sqOff += dim
				kqOff += Q
			}
		}
	})
	return sigma
}

// logLikGrad returns the log marginal likelihood and its gradient with
// respect to theta. The returned gradient slice is owned by the engine and
// overwritten by the next call. The result is bitwise identical for every
// worker count.
func (e *lcmEngine) logLikGrad(theta []float64) (float64, []float64, error) {
	m := thetaToModel(theta, e.layout)
	n := e.cache.n
	Q := e.layout.q
	T := e.layout.tasks
	dim := e.layout.dim

	e.prepare(m)
	sigma := e.assembleSigma(m)

	l, _, err := la.CholeskyJitter(sigma, 0, cholBlock, e.workers)
	if err != nil {
		return 0, nil, err
	}
	alpha := la.SolveCholVec(l, e.yn)
	ll := -0.5*la.Dot(e.yn, alpha) - 0.5*la.LogDetFromChol(l) - 0.5*float64(n)*math.Log(2*math.Pi)

	inv := la.ParallelCholInverseInto(l, e.workers, e.invWT, e.invBuf)

	// Gradient sweep over the upper triangle with M = ααᵀ - Σ⁻¹ formed on
	// the fly. All contractions reduce to per-chunk partial sums:
	//
	//	V_q[i][j]  = Σ_{r<s, t_r=i, t_s=j} M_rs·k_q(r,s)
	//	gl[q][d]   = Σ_{r<s} M_rs·C_q[t_r][t_s]·k_q(r,s)·(x_r[d]-x_s[d])²
	//	dsum[i]    = Σ_{r, t_r=i} M_rr
	mpx.ParallelChunks(n, gradChunkRows, e.workers, func(c, lo, hi int) {
		vbuf := e.chunkV[c]
		glbuf := e.chunkGL[c]
		dbuf := e.chunkDsum[c]
		eq := e.chunkEq[c]
		for i := range vbuf {
			vbuf[i] = 0
		}
		for i := range glbuf {
			glbuf[i] = 0
		}
		for i := range dbuf {
			dbuf[i] = 0
		}
		sqAll := e.cache.sq
		kqAll := e.kq
		TT := T * T
		for r := lo; r < hi; r++ {
			tr := e.taskOf[r]
			trT := tr * T
			ar := alpha[r]
			invRow := inv.Data[r*n : (r+1)*n]
			dbuf[tr] += ar*ar - invRow[r]
			// Running offsets into the packed pair-major tensors, starting
			// at pair (r, r+1).
			pp := e.cache.pairStart(r) + 1
			kqOff := pp * Q
			sqOff := pp * dim
			for s := r + 1; s < n; s++ {
				mm := ar*alpha[s] - invRow[s]
				tt := trT + e.taskOf[s]
				for q := 0; q < Q; q++ {
					mk := mm * kqAll[kqOff+q]
					vbuf[q*TT+tt] += mk
					eq[q] = mk * e.coef[q][tt]
				}
				for d := 0; d < dim; d++ {
					sd := sqAll[sqOff+d]
					if sd == 0 { //gptlint:ignore float-eq exact-zero sparsity skip; zero distance contributes exactly zero gradient
						continue
					}
					for q := 0; q < Q; q++ {
						glbuf[q*dim+d] += eq[q] * sd
					}
				}
				kqOff += Q
				sqOff += dim
			}
		}
	})

	// Merge chunk partials in fixed chunk order (worker-count independent).
	v0 := e.chunkV[0]
	gl0 := e.chunkGL[0]
	d0 := e.chunkDsum[0]
	for c := 1; c < len(e.chunkV); c++ {
		for i, v := range e.chunkV[c] {
			v0[i] += v
		}
		for i, v := range e.chunkGL[c] {
			gl0[i] += v
		}
		for i, v := range e.chunkDsum[c] {
			d0[i] += v
		}
	}

	// Assemble the gradient from the task-block sums. With
	// T_q[i][j] = Σ_{ordered (r,s), t_r=i, t_s=j} M_rs·k_q (so
	// T_q[i][j] = V_q[i][j]+V_q[j][i] off-diagonal and
	// T_q[i][i] = 2·V_q[i][i]+dsum[i], since k_q(r,r) = 1):
	//
	//	∂L/∂a_qi       = Σ_j T_q[i][j]·a_qj
	//	∂L/∂log b_qi   = ½·b_qi·T_q[i][i]
	//	∂L/∂log d_i    = ½·d_i·dsum[i]
	//	∂L/∂log l_qd   = gl[q][d]/l²
	grad := e.grad
	for q := 0; q < Q; q++ {
		vq := v0[q*T*T : (q+1)*T*T]
		aq := m.A[q]
		for i := 0; i < T; i++ {
			tii := 2*vq[i*T+i] + d0[i]
			ga := tii * aq[i]
			for j := 0; j < T; j++ {
				if j == i {
					continue
				}
				ga += (vq[i*T+j] + vq[j*T+i]) * aq[j]
			}
			grad[e.layout.aAt(q, i)] = ga
			grad[e.layout.bAt(q, i)] = 0.5 * m.B[q][i] * tii
		}
		for d := 0; d < dim; d++ {
			grad[e.layout.lsAt(q, d)] = gl0[q*dim+d] * e.winv[q][d]
		}
	}
	for i := 0; i < T; i++ {
		grad[e.layout.dAt(i)] = 0.5 * m.D[i] * d0[i]
	}
	return ll, grad, nil
}
