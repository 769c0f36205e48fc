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
// more than they return — measured on a shared two-core Xeon (δ 3, β 5,
// Q 3), one worker against two, medians of three runs with la's fused
// factorization and inverse strips: 153 → 198 µs at n = 72, 705 → 727 µs
// at n = 150, 1.17 → 1.15 ms at n = 192 (break-even), 2.36 → 2.05 ms at
// n = 255, 10.7 → 8.1 ms at n = 450. Below 192 one worker is as fast or
// faster, inside the machine's noise, so the threshold stays at 192.
// It never moves a bit (the reductions are worker-count independent); it
// only keeps a small fit's last surviving start, which has every worker to
// itself, from paying for parallelism it cannot use.
const evalParallelMin = 3 * cholBlock

// lcmEngine evaluates the LCM log marginal likelihood and its analytic
// gradient against a fixed dataset. It is the hot path of the modeling
// phase: one L-BFGS restart performs ~100 evaluations, and the paper's
// Table 3 shows this phase dominating GPTune's overhead as n·δ grows.
//
// Versus the naive evaluation (reference_test.go, the package's one oracle:
// its Σ and likelihood are the engine's bit for bit, its per-pair gradient
// agrees to a tolerance), the engine
//   - fills each row's squared differences once per pass from the
//     dimension-major coordinates of a pairCache built once per FitLCM call,
//     through one lane kernel, instead of one scalar loop per pair,
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
// An evaluation comes in two halves, so the minimizer pays for a gradient
// only where it reads one (objective): logLik assembles, factors and solves
// for α, and gradient, run right after it on what it left, inverts and
// sweeps.
//
// One engine serves one goroutine (the scratch buffers are reused across
// evaluations, so an evaluation allocates nothing that grows with n); the
// pairCache is shared read-only by all engines. An evaluation's four n×n
// matrices — Σ, its factor L, W = L⁻¹ and Σ⁻¹ — are each symmetric or
// triangular and live as packed triangles in two buffers, each holding two
// of them whose lifetimes do not overlap, so an engine costs Q·n(n+1)/2
// kernel values, n(n+1) doubles of buffers and a per-chunk row scratch of
// about β·n²/64 doubles.
type lcmEngine struct {
	layout  hyperLayout
	cache   *pairCache
	taskOf  []int
	runEnd  []int // runEnds(taskOf)
	yn      []float64
	workers int

	// Reusable scratch, sized once at construction.
	model *LCM        // the hyperparameters under evaluation, refilled per call
	kq    []float64   // [npairs*Q] kernel values: row r's [Q][n-r] block, latent-major, at pairStart(r)*Q
	alpha []float64   // Σ⁻¹·y
	coef  []float64   // [(i*T+j)*Q + q]: coefTable's layout
	winv  [][]float64 // [q][dim]: 1/l²
	grad  []float64   // gradient output buffer

	// The two buffers, n(n+1)/2 doubles each. a holds Σ's lower triangle
	// (sigma) from assembleSigma through the Cholesky, whose jitter retries
	// re-read it, then W = L⁻¹ (transposed, upper-packed) from the inverse's
	// first phase through its second. b holds L (chol) from the Cholesky
	// through the inverse's first phase, then Σ⁻¹'s upper triangle — pair p
	// at p, pairCache's indexing — from its second phase through gradSweep
	// (la.CholInversePackedInto's aliasing contract).
	a, b        []float64
	sigma, chol *la.TriPacked
	state       evalState // what a and b hold for the gradient half

	// Per-chunk partial accumulators, merged serially in chunk order. The
	// lengthscale accumulators and the per-pair factors feeding them are four
	// latents wide (la.AccumLanesInto's lanes): Q latents occupy ⌈Q/4⌉ lane
	// blocks, and the lanes past Q hold zeros throughout.
	chunkV    [][]float64 // [chunk][Q*T*T]: Σ_{r<s} mm·k_q per (q, t_r, t_s)
	chunkGL   [][]float64 // [chunk][block][dim][4]: Σ_{r<s} mm·coef·k_q·sq_d
	chunkDsum [][]float64 // [chunk][T]: Σ_r mm_rr per task
	chunkEq   [][]float64 // [chunk][block][n-lo][4]: one row's mm·coef·k_q per pair
	chunkSq   [][]float64 // [chunk][dim][n-lo]: one row's squared differences (pairCache.sqRow), then in assembleSigma its row of Σ
}

// evalState is what an engine's buffers hold for the gradient half.
type evalState uint8

const (
	evalSpent    evalState = iota // nothing the gradient half can use
	evalFactored                  // logLik's Σ factor, α and kernels
	evalFailed                    // logLik found Σ indefinite at every jitter rung
)

// laneBlocks returns how many four-latent lane blocks q latents occupy.
func laneBlocks(q int) int { return (q + 3) / 4 }

// runEnds is the same-task run table of taskOf: runEnd[s] is one past the
// last of the consecutive samples from s on with s's task. A run shares one
// coefficient vector, so Σ, the gradient sweep and k* take it in one call.
func runEnds(taskOf []int) []int {
	runEnd := make([]int, len(taskOf))
	for s := len(taskOf) - 1; s >= 0; s-- {
		runEnd[s] = s + 1
		if s+1 < len(taskOf) && taskOf[s+1] == taskOf[s] {
			runEnd[s] = runEnd[s+1]
		}
	}
	return runEnd
}

func newLCMEngine(cache *pairCache, layout hyperLayout, taskOf []int, yn []float64, workers int) *lcmEngine {
	e := &lcmEngine{
		layout:  layout,
		cache:   cache,
		taskOf:  taskOf,
		runEnd:  runEnds(taskOf),
		yn:      yn,
		workers: workers,
		model:   newModel(layout),
		kq:      make([]float64, cache.npairs*layout.q),
		a:       make([]float64, cache.npairs),
		b:       make([]float64, cache.npairs),
		alpha:   make([]float64, cache.n),
		coef:    make([]float64, layout.q*layout.tasks*layout.tasks),
		winv:    make([][]float64, layout.q),
		grad:    make([]float64, layout.total()),
	}
	e.sigma, e.chol = la.NewTriPacked(cache.n, e.a), la.NewTriPacked(cache.n, e.b)
	for q := 0; q < layout.q; q++ {
		e.winv[q] = make([]float64, layout.dim)
	}
	nc := mpx.NumChunks(cache.n, gradChunkRows)
	blocks := laneBlocks(layout.q)
	e.chunkV = make([][]float64, nc)
	e.chunkGL = make([][]float64, nc)
	e.chunkDsum = make([][]float64, nc)
	e.chunkEq = make([][]float64, nc)
	e.chunkSq = make([][]float64, nc)
	for c := 0; c < nc; c++ {
		e.chunkV[c] = make([]float64, layout.q*layout.tasks*layout.tasks)
		e.chunkGL[c] = make([]float64, blocks*layout.dim*4)
		e.chunkDsum[c] = make([]float64, layout.tasks)
		e.chunkEq[c] = make([]float64, blocks*(cache.n-c*gradChunkRows)*4)
		e.chunkSq[c] = make([]float64, layout.dim*(cache.n-c*gradChunkRows))
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
// in one parallel pass over the rows, into e.sigma, every entry of the lower
// triangle written once. prepare(m) must have been called. The kernels stay
// in e.kq for the gradient sweep.
//
// Each row r and its n-r contiguous pairs take four passes, the second and
// last on the same lane kernel (la.WeightedSumsInto, four pairs per
// register): the row's squared differences (pairCache.sqRow); per latent,
// the kernel arguments -½·Σ_d sq_d/l_qd², d ascending from +0 exactly as the
// per-pair loop summed them; one la.ExpInto over the row's Q·(n-r)
// arguments in place; and per run of pairs whose second sample has the same
// task — so one coefficient vector — Σ_q C_q·k_q, q ascending from +0
// likewise (scale 1 is exact), into the row's spent squared differences,
// from where it goes to column r of Σ's lower triangle.
func (e *lcmEngine) assembleSigma(m *LCM) *la.TriPacked {
	n := e.cache.n
	Q := e.layout.q
	T := e.layout.tasks
	mpx.ParallelChunks(n, gradChunkRows, e.workers, func(c, lo, hi int) {
		sigma := e.a // through e, not captured: the closure is built on every call
		for r := lo; r < hi; r++ {
			// Pairs (r, r..n-1) are contiguous in the packed layout.
			cnt := n - r
			p0 := e.cache.pairStart(r)
			sq := e.cache.sqRow(e.chunkSq[c], r)
			k := e.kq[p0*Q : (p0+cnt)*Q]
			for q := 0; q < Q; q++ {
				la.WeightedSumsInto(k[q*cnt:(q+1)*cnt], e.winv[q], sq, cnt, -0.5)
			}
			la.ExpInto(k, k)
			tr := e.taskOf[r]
			row := sq[:cnt] // the squared differences are spent: Σ[r][s] at s-r
			for s := r; s < n; s = e.runEnd[s] {
				tt := tr*T + e.taskOf[s]
				la.WeightedSumsInto(row[s-r:e.runEnd[s]-r], e.coef[tt*Q:(tt+1)*Q], k[s-r:], cnt, 1)
			}
			row[0] += m.D[tr]
			// Σ[s][r] sits at s(s+1)/2 + r, one lower row further per pair.
			o := r*(r+1)/2 + r
			for j, v := range row {
				sigma[o] = v
				o += r + j + 1
			}
		}
	})
	return e.sigma
}

// gradSweep runs the gradient sweep over the upper triangle with
// M = ααᵀ - Σ⁻¹ formed on the fly from e.alpha and inv, Σ⁻¹'s upper
// triangle in pair order, against the kernels assembleSigma left in e.kq. All contractions reduce to per-chunk partial
// sums, merged in fixed chunk order (worker-count independent) into chunk 0's
// buffers, which it returns:
//
//	V_q[i][j]  = Σ_{r<s, t_r=i, t_s=j} M_rs·k_q(r,s)
//	gl[q][d]   = Σ_{r<s} M_rs·C_q[t_r][t_s]·k_q(r,s)·(x_r[d]-x_s[d])²
//	dsum[i]    = Σ_{r, t_r=i} M_rr
//
// gl comes back in chunkGL's lane layout: gl[q][d] at ((q/4)·dim + d)·4 + q%4.
//
// Per row, a scalar pass over its pairs, one sweepRun per run of second
// samples sharing a task, forms M_rs, the task-block sums and the per-pair
// lengthscale factors eq = M_rs·k_q·C_q, four latents wide; then, over the
// row's squared differences (pairCache.sqRow, filled once per row),
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
func (e *lcmEngine) gradSweep(inv []float64) (v, gl, dsum []float64) {
	n := e.cache.n
	Q := e.layout.q
	T := e.layout.tasks
	dim := e.layout.dim
	TT := T * T
	mpx.ParallelChunks(n, gradChunkRows, e.workers, func(c, lo, hi int) {
		alpha := e.alpha // through e, not captured: the closure is built on every call
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
			cnt := n - r
			p0 := e.cache.pairStart(r)
			invRow := inv[p0 : p0+cnt] // Σ⁻¹[r][s] at s-r
			dbuf[tr] += ar*ar - invRow[0]
			if cnt == 1 {
				continue
			}
			k := e.kq[p0*Q : (p0+cnt)*Q]
			// Pairs (r, r+1..n-1): their α, Σ⁻¹ entries, kernels and squared
			// distances (rows of cnt from the second on); pair s is entry
			// s-r-1.
			alphaRow, invPairs := alpha[r+1:n], invRow[1:]
			sq := e.cache.sqRow(e.chunkSq[c], r)[1:]
			for b := 0; b*4 < Q; b++ {
				acc := glbuf[b*dim*4 : (b+1)*dim*4]
				row := eq[b*eqBlock : b*eqBlock+4*(cnt-1)]
				lanes := min(Q-4*b, 4)
				kb, vb, cb := k[4*b*cnt+1:], vbuf[4*b*TT:], e.coef[4*b:]
				for s := r + 1; s < n; s = e.runEnd[s] {
					j0, j1 := s-r-1, e.runEnd[s]-r-1
					tt := trT + e.taskOf[s]
					sweepRun(lanes, row[4*j0:4*j1], alphaRow[j0:j1], invPairs[j0:j1], kb[j0:], cnt, vb[tt:], TT, cb[tt*Q:], ar)
				}
				la.AccumLanesInto(acc, row, sq, cnt)
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

// sweepRun is gradSweep's pass over one run of a row's pairs whose second
// samples share a task, so one task block tt and one coefficient per latent,
// for the lanes (1–4) latents of one lane block: pair j of the run, in order,
//
//	mm = ar·alpha[j] − inv[j],   mk_l = mm·k[l·stride + j],
//	v[l·vStride] += mk_l,        out[4j + l] = mk_l·c[l].
//
// The run's task-block sums live in locals from its first pair to its last,
// one body per lane count, so each add is the per-pair loop's add without a
// store and a load around it.
func sweepRun(lanes int, out, alpha, inv, k []float64, stride int, v []float64, vStride int, c []float64, ar float64) {
	n := len(alpha)
	inv, out = inv[:n], out[:4*n]
	switch lanes {
	case 1:
		k0 := k[:n]
		c0, v0 := c[0], v[0]
		for j, as := range alpha {
			mm := ar*as - inv[j]
			m0 := mm * k0[j]
			v0 += m0
			out[4*j] = m0 * c0
		}
		v[0] = v0
	case 2:
		k0, k1 := k[:n], k[stride:stride+n]
		c0, c1 := c[0], c[1]
		v0, v1 := v[0], v[vStride]
		for j, as := range alpha {
			mm := ar*as - inv[j]
			m0, m1 := mm*k0[j], mm*k1[j]
			v0 += m0
			v1 += m1
			o := out[4*j : 4*j+2 : 4*j+2]
			o[0], o[1] = m0*c0, m1*c1
		}
		v[0], v[vStride] = v0, v1
	case 3:
		k0, k1, k2 := k[:n], k[stride:stride+n], k[2*stride:2*stride+n]
		c0, c1, c2 := c[0], c[1], c[2]
		v0, v1, v2 := v[0], v[vStride], v[2*vStride]
		for j, as := range alpha {
			mm := ar*as - inv[j]
			m0, m1, m2 := mm*k0[j], mm*k1[j], mm*k2[j]
			v0 += m0
			v1 += m1
			v2 += m2
			o := out[4*j : 4*j+3 : 4*j+3]
			o[0], o[1], o[2] = m0*c0, m1*c1, m2*c2
		}
		v[0], v[vStride], v[2*vStride] = v0, v1, v2
	default:
		k0, k1, k2, k3 := k[:n], k[stride:stride+n], k[2*stride:2*stride+n], k[3*stride:3*stride+n]
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		v0, v1, v2, v3 := v[0], v[vStride], v[2*vStride], v[3*vStride]
		for j, as := range alpha {
			mm := ar*as - inv[j]
			m0, m1, m2, m3 := mm*k0[j], mm*k1[j], mm*k2[j], mm*k3[j]
			v0 += m0
			v1 += m1
			v2 += m2
			v3 += m3
			o := out[4*j : 4*j+4 : 4*j+4]
			o[0], o[1], o[2], o[3] = m0*c0, m1*c1, m2*c2, m3*c3
		}
		v[0], v[vStride], v[2*vStride], v[3*vStride] = v0, v1, v2, v3
	}
}

// logLik is an evaluation's value half: the log marginal likelihood at
// theta — Σ assembled into a, factored into b, α solved — or the error of a
// covariance indefinite at every jitter rung. It leaves in the engine what
// the gradient half reads: the kernels, L and α.
func (e *lcmEngine) logLik(theta []float64) (float64, error) {
	m := e.model
	m.setTheta(theta, e.layout)
	n := e.cache.n
	e.prepare(m)
	sigma := e.assembleSigma(m)
	if _, err := la.CholeskyJitterPackedInto(e.chol, sigma, 0, cholBlock, e.workers); err != nil {
		return 0, err
	}
	alpha := e.alpha
	copy(alpha, e.yn)
	e.chol.ForwardSubst(alpha)
	e.chol.BackwardSubstT(alpha)
	return -0.5*la.Dot(e.yn, alpha) - 0.5*e.chol.LogDet() - 0.5*float64(n)*math.Log(2*math.Pi), nil
}

// gradient is an evaluation's gradient half: the gradient of the log
// likelihood with respect to the theta of the logLik call just before it,
// which must have succeeded. It inverts L into the two buffers (W over Σ in
// a, Σ⁻¹ over L in b) and sweeps, so it runs once per logLik. The returned
// slice is owned by the engine and overwritten by the next call.
func (e *lcmEngine) gradient() []float64 {
	m := e.model
	T := e.layout.tasks
	inv := la.CholInversePackedInto(e.chol, e.workers, e.a, e.b)
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
	for q := 0; q < e.layout.q; q++ {
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
		for d := 0; d < e.layout.dim; d++ {
			grad[e.layout.lsAt(q, d)] = gl0[((q>>2)*e.layout.dim+d)*4+q&3] * e.winv[q][d]
		}
	}
	for i := 0; i < T; i++ {
		grad[e.layout.dAt(i)] = 0.5 * m.D[i] * d0[i]
	}
	return grad
}

// objective is the engine as the minimizer sees it, its two halves negated:
// Value is −logLik, +Inf where the covariance stays indefinite even after
// jitter (the line search backs out of the region), and Grad the negated
// gradient at the point of the Value call just before it — zero after a
// +Inf. L-BFGS asks for Grad only at points it accepts, so a rejected trial
// point costs no inverse and no sweep.
func (e *lcmEngine) objective() opt.SplitObjective {
	return opt.SplitObjective{Value: e.negLogLik, Grad: e.negGradient}
}

func (e *lcmEngine) negLogLik(theta []float64) float64 {
	ll, err := e.logLik(theta)
	if err != nil {
		e.state = evalFailed
		return math.Inf(1)
	}
	e.state = evalFactored
	return -ll
}

func (e *lcmEngine) negGradient(_, grad []float64) {
	switch e.state {
	case evalFactored:
		for i, g := range e.gradient() {
			grad[i] = -g
		}
	case evalFailed:
		for i := range grad {
			grad[i] = 0
		}
	default:
		panic("gp: likelihood gradient asked for twice, or before its value")
	}
	e.state = evalSpent
}
