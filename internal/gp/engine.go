package gp

import (
	"math"

	"repro/internal/la"
	"repro/internal/mpx"
	"repro/internal/opt"
)

// gradChunkRows is the fixed row-chunk size of the parallel kernel and
// gradient sweeps. It must never depend on the worker count: per-chunk
// partial sums are merged in chunk-index order, which keeps every reduction
// bitwise identical for any FitOptions.Workers (the regression guard
// TestFitLCMParallelWorkersAgree relies on this).
const gradChunkRows = 32

// evalParallelMin is the sample count from which FitLCM lets one likelihood
// evaluation fan its passes out over goroutines. Below it the evaluation is
// a few hundred microseconds and the half-dozen fork/joins inside it cost
// more than they return — measured on two cores: 216 → 293 µs at n = 72,
// 1.13 → 1.29 ms at n = 150, break-even near n = 200, 18 → 11 ms at
// n = 450. It never moves a bit (the reductions are worker-count
// independent); it only keeps a small fit's last surviving start, which has
// every worker to itself, from paying for parallelism it cannot use.
const evalParallelMin = 3 * cholBlock

// lcmEngine evaluates the LCM log marginal likelihood and its analytic
// gradient against a fixed dataset. It is the hot path of the modeling
// phase: one L-BFGS restart performs ~100 evaluations, and the paper's
// Table 3 shows this phase dominating GPTune's overhead as n·δ grows.
//
// Versus the naive evaluation (reference_test.go, the package's one oracle:
// its Σ and likelihood are the engine's bit for bit, its per-pair gradient
// agrees to a tolerance), the engine
//   - reads every pairwise distance from a pairCache computed once per
//     FitLCM call instead of re-touching the raw coordinates,
//   - sweeps only the upper triangle (r ≤ s), exploiting the symmetry of
//     both Σ and the gradient contractions,
//   - reduces the a/b/d gradients to per-task-block sums (δ² per latent)
//     instead of scattering into the gradient vector per sample pair,
//   - runs the O(n²) passes — kernel arguments, exp, Σ accumulation, the
//     lengthscale contractions — as contiguous sweeps over la's four-lane
//     kernels, each output seeing the operations the per-pair loops
//     performed, in their order, and
//   - distributes kernel assembly, the gradient sweep, the blocked Cholesky
//     and the inverse over Workers goroutines.
//
// One engine serves one goroutine (the scratch buffers are reused across
// evaluations, so an evaluation allocates nothing that grows with n); the
// pairCache is shared read-only by all engines.
type lcmEngine struct {
	layout  hyperLayout
	cache   *pairCache
	taskOf  []int
	runEnd  []int // runEnd[s]: end of the run of samples sharing s's task, s < runEnd[s] ≤ n
	yn      []float64
	workers int

	// Reusable scratch, sized once at construction.
	model  *LCM        // the hyperparameters under evaluation, refilled per call
	kq     []float64   // [npairs*Q] kernel values: row r's [Q][n-r] block, latent-major, at pairStart(r)*Q
	sigma  *la.Matrix  // assembled covariance
	chol   *la.Matrix  // its Cholesky factor
	alpha  []float64   // Σ⁻¹·y
	invWT  *la.Matrix  // W = L⁻¹ scratch for the inverse
	invBuf *la.Matrix  // Σ⁻¹ output scratch
	coef   []float64   // [(i*T+j)*Q + q]: coefTable's layout
	winv   [][]float64 // [q][dim]: 1/l²
	grad   []float64   // gradient output buffer

	// Per-chunk partial accumulators, merged serially in chunk order. The
	// lengthscale accumulators and the per-pair factors feeding them are four
	// latents wide (la.AccumLanesInto's lanes): Q latents occupy ⌈Q/4⌉ lane
	// blocks, and the lanes past Q hold zeros throughout.
	chunkV    [][]float64 // [chunk][Q*T*T]: Σ_{r<s} mm·k_q per (q, t_r, t_s)
	chunkGL   [][]float64 // [chunk][block][dim][4]: Σ_{r<s} mm·coef·k_q·sq_d
	chunkDsum [][]float64 // [chunk][T]: Σ_r mm_rr per task
	chunkEq   [][]float64 // [chunk][block][n-lo][4]: one row's mm·coef·k_q per pair
}

// laneBlocks returns how many four-latent lane blocks q latents occupy.
func laneBlocks(q int) int { return (q + 3) / 4 }

func newLCMEngine(cache *pairCache, layout hyperLayout, taskOf []int, yn []float64, workers int) *lcmEngine {
	e := &lcmEngine{
		layout:  layout,
		cache:   cache,
		taskOf:  taskOf,
		yn:      yn,
		workers: workers,
		model:   newModel(layout),
		kq:      make([]float64, cache.npairs*layout.q),
		sigma:   la.NewMatrix(cache.n, cache.n),
		chol:    la.NewMatrix(cache.n, cache.n),
		alpha:   make([]float64, cache.n),
		invWT:   la.NewMatrix(cache.n, cache.n),
		invBuf:  la.NewMatrix(cache.n, cache.n),
		coef:    make([]float64, layout.q*layout.tasks*layout.tasks),
		winv:    make([][]float64, layout.q),
		grad:    make([]float64, layout.total()),
	}
	for q := 0; q < layout.q; q++ {
		e.winv[q] = make([]float64, layout.dim)
	}
	e.runEnd = make([]int, cache.n)
	for s := cache.n - 1; s >= 0; s-- {
		e.runEnd[s] = s + 1
		if s+1 < cache.n && taskOf[s+1] == taskOf[s] {
			e.runEnd[s] = e.runEnd[s+1]
		}
	}
	nc := mpx.NumChunks(cache.n, gradChunkRows)
	blocks := laneBlocks(layout.q)
	e.chunkV = make([][]float64, nc)
	e.chunkGL = make([][]float64, nc)
	e.chunkDsum = make([][]float64, nc)
	e.chunkEq = make([][]float64, nc)
	for c := 0; c < nc; c++ {
		e.chunkV[c] = make([]float64, layout.q*layout.tasks*layout.tasks)
		e.chunkGL[c] = make([]float64, blocks*layout.dim*4)
		e.chunkDsum[c] = make([]float64, layout.tasks)
		e.chunkEq[c] = make([]float64, blocks*(cache.n-c*gradChunkRows)*4)
	}
	return e
}

// prepare fills the coefficient table (coefTable) and the inverse-square
// lengthscales for model m.
func (e *lcmEngine) prepare(m *LCM) {
	m.coefTable(e.coef)
	for q := 0; q < e.layout.q; q++ {
		for d := 0; d < e.layout.dim; d++ {
			e.winv[q][d] = 1 / (m.Ls[q][d] * m.Ls[q][d])
		}
	}
}

// assembleSigma computes all latent kernels k_q and the Eq. (4) covariance Σ
// in one parallel pass over the cached distance tensor. prepare(m) must have
// been called. The kernels stay in e.kq for the gradient sweep.
//
// Each row r and its n-r contiguous pairs take three passes, the first and
// last on the same lane kernel (la.WeightedSumsInto, four pairs per
// register): per latent, the kernel arguments -½·Σ_d sq_d/l_qd², d ascending
// from +0 exactly as the per-pair loop summed them; one la.ExpInto over the
// row's Q·(n-r) arguments in place; and per run of pairs whose second sample
// has the same task — so one coefficient vector — Σ_q C_q·k_q, q ascending
// from +0 likewise (scale 1 is exact).
func (e *lcmEngine) assembleSigma(m *LCM) *la.Matrix {
	n := e.cache.n
	Q := e.layout.q
	T := e.layout.tasks
	sigma := e.sigma
	mpx.ParallelChunks(n, gradChunkRows, e.workers, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			// Pairs (r, r..n-1) are contiguous in the packed layout.
			cnt := n - r
			p0 := e.cache.pairStart(r)
			k := e.kq[p0*Q : (p0+cnt)*Q]
			for q := 0; q < Q; q++ {
				la.WeightedSumsInto(k[q*cnt:(q+1)*cnt], e.winv[q], e.cache.sq[p0:], e.cache.npairs, -0.5)
			}
			la.ExpInto(k, k)
			tr := e.taskOf[r]
			sigRow := sigma.Data[r*n : (r+1)*n]
			for s := r; s < n; s = e.runEnd[s] {
				tt := tr*T + e.taskOf[s]
				la.WeightedSumsInto(sigRow[s:e.runEnd[s]], e.coef[tt*Q:(tt+1)*Q], k[s-r:], cnt, 1)
			}
			sigRow[r] += m.D[tr]
			for s := r + 1; s < n; s++ {
				sigma.Data[s*n+r] = sigRow[s]
			}
		}
	})
	return sigma
}

// gradSweep runs the gradient sweep over the upper triangle with
// M = ααᵀ - Σ⁻¹ formed on the fly from e.alpha and inv, against the kernels
// assembleSigma left in e.kq. All contractions reduce to per-chunk partial
// sums, merged in fixed chunk order (worker-count independent) into chunk 0's
// buffers, which it returns:
//
//	V_q[i][j]  = Σ_{r<s, t_r=i, t_s=j} M_rs·k_q(r,s)
//	gl[q][d]   = Σ_{r<s} M_rs·C_q[t_r][t_s]·k_q(r,s)·(x_r[d]-x_s[d])²
//	dsum[i]    = Σ_{r, t_r=i} M_rr
//
// gl comes back in chunkGL's lane layout: gl[q][d] at ((q/4)·dim + d)·4 + q%4.
//
// Per row, a scalar pass over its pairs forms M_rs, the task-block sums and
// the per-pair lengthscale factors eq = M_rs·k_q·C_q, four latents wide; then
// la.AccumLanesInto adds eq·sq_d into the [dim][4] lengthscale accumulators,
// lanes = latents, pairs ascending — the order the per-pair loop added them.
//
// That loop skipped sq_d = 0 terms; the kernel adds them. An accumulator that
// starts at +0 never becomes -0 and x + ±0 = x, so adding eq·0 changes
// nothing while eq is finite. A non-finite eq would need a non-finite α,
// Σ⁻¹ or kernel value behind a factorization that succeeded (a non-finite
// coefficient or kernel of any pair puts Inf or NaN off Σ's diagonal, which
// no pivot survives), and no hyperparameters produce one:
// TestEngineMatchesReference, whose oracle keeps the skip and requires the
// engine to be non-finite exactly where it is, pins that at hostile
// hyperparameters on grid coordinates and on an infinite diagonal.
func (e *lcmEngine) gradSweep(inv *la.Matrix) (v, gl, dsum []float64) {
	n := e.cache.n
	Q := e.layout.q
	T := e.layout.tasks
	dim := e.layout.dim
	TT := T * T
	npairs := e.cache.npairs
	alpha := e.alpha
	mpx.ParallelChunks(n, gradChunkRows, e.workers, func(c, lo, hi int) {
		vbuf := e.chunkV[c]
		glbuf := e.chunkGL[c]
		dbuf := e.chunkDsum[c]
		eq := e.chunkEq[c]
		eqBlock := len(eq) / laneBlocks(Q) // one lane block of the row buffer
		for i := range vbuf {
			vbuf[i] = 0
		}
		for i := range glbuf {
			glbuf[i] = 0
		}
		for i := range dbuf {
			dbuf[i] = 0
		}
		for r := lo; r < hi; r++ {
			tr := e.taskOf[r]
			trT := tr * T
			ar := alpha[r]
			invRow := inv.Data[r*n : (r+1)*n]
			dbuf[tr] += ar*ar - invRow[r]
			cnt := n - r
			p0 := e.cache.pairStart(r)
			k := e.kq[p0*Q : (p0+cnt)*Q]
			// Pairs (r, r+1..n-1): their tasks, α, Σ⁻¹ entries and, from p0+1
			// on, squared distances.
			tasks, alphaRow, invPairs := e.taskOf[r+1:n], alpha[r+1:n], invRow[r+1:n]
			sq := e.cache.sq[p0+1:]
			for b := 0; b*4 < Q; b++ {
				acc := glbuf[b*dim*4 : (b+1)*dim*4]
				row := eq[b*eqBlock : b*eqBlock+4*(cnt-1)]
				lanes := Q - 4*b
				if lanes > 4 {
					lanes = 4
				}
				kb, vb, cb := k[4*b*cnt:], vbuf[4*b*TT:], e.coef[4*b:]
				for j, as := range alphaRow {
					mm := ar*as - invPairs[j]
					tt := trT + tasks[j]
					out := row[4*j : 4*j+lanes]
					for l := range out {
						mk := mm * kb[l*cnt+j+1]
						vb[l*TT+tt] += mk
						out[l] = mk * cb[tt*Q+l]
					}
				}
				la.AccumLanesInto(acc, row, sq, npairs)
			}
		}
	})
	v, gl, dsum = e.chunkV[0], e.chunkGL[0], e.chunkDsum[0]
	for c := 1; c < len(e.chunkV); c++ {
		for i, x := range e.chunkV[c] {
			v[i] += x
		}
		for i, x := range e.chunkGL[c] {
			gl[i] += x
		}
		for i, x := range e.chunkDsum[c] {
			dsum[i] += x
		}
	}
	return v, gl, dsum
}

// logLikGrad returns the log marginal likelihood and its gradient with
// respect to theta. The returned gradient slice is owned by the engine and
// overwritten by the next call. The result is bitwise identical for every
// worker count.
func (e *lcmEngine) logLikGrad(theta []float64) (float64, []float64, error) {
	m := e.model
	m.setTheta(theta, e.layout)
	n := e.cache.n
	Q := e.layout.q
	T := e.layout.tasks
	dim := e.layout.dim

	e.prepare(m)
	sigma := e.assembleSigma(m)

	l := e.chol
	if _, err := la.CholeskyJitterInto(l, sigma, 0, cholBlock, e.workers); err != nil {
		return 0, nil, err
	}
	alpha := e.alpha
	copy(alpha, e.yn)
	la.ForwardSubst(l, alpha)
	la.BackwardSubstT(l, alpha)
	ll := -0.5*la.Dot(e.yn, alpha) - 0.5*la.LogDetFromChol(l) - 0.5*float64(n)*math.Log(2*math.Pi)

	inv := la.ParallelCholInverseInto(l, e.workers, e.invWT, e.invBuf)

	v0, gl0, d0 := e.gradSweep(inv)

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
			grad[e.layout.lsAt(q, d)] = gl0[((q>>2)*dim+d)*4+q&3] * e.winv[q][d]
		}
	}
	for i := 0; i < T; i++ {
		grad[e.layout.dAt(i)] = 0.5 * m.D[i] * d0[i]
	}
	return ll, grad, nil
}

// objective is the engine as the minimizer sees it: the negated log
// likelihood and gradient, +Inf with a zero gradient where the covariance
// stays indefinite even after jitter (the line search backs out of the
// region).
func (e *lcmEngine) objective() opt.GradObjective {
	return func(theta, grad []float64) float64 {
		ll, g, err := e.logLikGrad(theta)
		if err != nil {
			for i := range grad {
				grad[i] = 0
			}
			return math.Inf(1)
		}
		for i := range grad {
			grad[i] = -g[i]
		}
		return -ll
	}
}
