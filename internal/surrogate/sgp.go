package surrogate

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/gp"
	"repro/internal/la"
	"repro/internal/mpx"
	"repro/internal/rng"
)

// defaultInducing is the per-task inducing-set size when FitOptions.Inducing
// is unset. 128 keeps fitting O(n·m²) ≈ linear in history length while the
// m×m factors stay small enough that prediction costs microseconds.
const defaultInducing = 128

// noiseFloor bounds 1/σ² in the DTC algebra when the optimizer drives the
// noise hyperparameter toward zero.
const noiseFloor = 1e-12

// sgpFitter fits one task's sparse GP — the cell of the sgp backend: a
// deterministic-training-conditional (DTC / projected-process) inducing-point
// approximation in the style of the subset-of-data scaling tricks of Snoek
// et al. Hyperparameters are learned by the exact single-task fit on the
// inducing subset itself (m points, so the O(m³) cost is independent of n),
// then the DTC posterior is built from all n points in O(n·m²):
//
//	Q_m = K_mm + σ⁻²·K_mn·K_nm
//	μ(x)  = k*ᵀ·σ⁻²·Q_m⁻¹·K_mn·y
//	σ²(x) = k** − k*ᵀK_mm⁻¹k* + k*ᵀQ_m⁻¹k* + σ²
//
// The inducing subset is chosen by a seeded shuffle of the samples (sorted
// back into canonical order), so the whole fit is seed-deterministic and —
// like every backend — bitwise independent of FitOptions.Workers: the K_mn
// and Q_m builds distribute rows whose summation order is fixed.
type sgpFitter struct{}

func (sgpFitter) Kind() string { return KindSGP }

// taskSGP is one task's fitted sparse GP. qmat and r are the sufficient
// statistics the posterior is derived from; Append folds new points into
// them and re-derives the m×m factor and alpha, never touching the O(n)
// training set again.
type taskSGP struct {
	dim    int
	n      int       // samples absorbed (bookkeeping only)
	m      int       // inducing-set size
	z      []float64 // m×dim inducing coordinates, row-major
	ls     []float64 // lengthscales (dim)
	signal float64   // kernel variance a² + b from the subset fit
	noise  float64   // noise variance d from the subset fit
	theta  []float64 // full subset-fit hyperparameter vector (warm starts)
	yMean  float64   // output standardization frozen from the subset fit
	yStd   float64
	prior  float64 // signal + noise

	// Kernel tables derived from ls and z by prepKernel, never serialized.
	w  []float64 // [dim]: ½/l²
	zT []float64 // [dim*m]: dimension-major copy of z

	qmat  *la.Matrix    // Q_m (no jitter), grown by Append
	r     []float64     // K_mn·y accumulator
	lm    *la.TriPacked // chol(K_mm + jitter·I)
	lq    *la.TriPacked // chol(Q_m + jitter·I)
	alpha []float64     // σ⁻²·Q_m⁻¹·r
}

func (ts *taskSGP) invNoise() float64 {
	ns := ts.noise
	if ns < noiseFloor {
		ns = noiseFloor
	}
	return 1 / ns
}

// prepKernel derives the kernel tables from ls and z, at fit time and on
// decode, so the snapshot carries neither.
func (ts *taskSGP) prepKernel() {
	ts.w = make([]float64, ts.dim)
	for d, l := range ts.ls {
		ts.w[d] = 0.5 / (l * l)
	}
	ts.zT = make([]float64, ts.dim*ts.m)
	for i := 0; i < ts.m; i++ {
		for d := 0; d < ts.dim; d++ {
			ts.zT[d*ts.m+i] = ts.z[i*ts.dim+d]
		}
	}
}

// kernRow sets dst[i] = signal·exp(−Σ_d (½/l_d²)·(x_d − z_i[d])²) for every
// inducing point i, allocation-free, in the gp package's k* form: one
// la.NegSqDistInto over zT, one la.ExpInto, then the signal scale. It is the
// task's one kernel evaluation — K_mn, K_mm, k* and Append's k. len(dst)
// must be m and len(x) dim.
//
//gptlint:hotpath
func (ts *taskSGP) kernRow(dst, x []float64) {
	la.NegSqDistInto(dst, ts.w, x, ts.zT, ts.m)
	la.ExpInto(dst, dst)
	la.ScaleVec(ts.signal, dst)
}

func (sgpFitter) Fit(data *Dataset, opts FitOptions) (Model, error) {
	x, y, dim := data.X[0], data.Y[0], data.Dim
	n := len(x)
	m := opts.Inducing
	if m <= 0 {
		m = defaultInducing
	}
	if m > n {
		m = n
	}
	var warmTheta []float64
	if warm, ok := opts.WarmStart.(*taskSGP); ok {
		warmTheta = warm.theta
	}
	// Deterministic seed-derived inducing selection: shuffle, take m, restore
	// canonical (ascending) order so downstream summations have a fixed order.
	rng := rng.New(opts.Seed, rng.Inducing)
	idx := rng.Perm(n)[:m]
	sort.Ints(idx)

	subX := make([][]float64, m)
	subY := make([]float64, m)
	for j, id := range idx {
		subX[j] = x[id]
		subY[j] = y[id]
	}
	sub := &gp.Dataset{Dim: dim, X: [][][]float64{subX}, Y: [][]float64{subY}}
	fit, err := gp.FitLCM(sub, gp.FitOptions{
		NumStarts: opts.NumStarts,
		Workers:   opts.Workers,
		MaxIter:   opts.MaxIter,
		Seed:      opts.Seed,
		Init:      warmTheta,
	})
	if err != nil {
		return nil, err
	}
	yMean, yStd := fit.OutputStats()
	ts := &taskSGP{
		dim:    dim,
		n:      n,
		m:      m,
		z:      make([]float64, m*dim),
		ls:     append([]float64(nil), fit.Ls[0]...),
		signal: fit.A[0][0]*fit.A[0][0] + fit.B[0][0],
		noise:  fit.D[0],
		theta:  fit.Hyperparameters(),
		yMean:  yMean,
		yStd:   yStd,
	}
	ts.prior = ts.signal + ts.noise
	for j, id := range idx {
		copy(ts.z[j*dim:(j+1)*dim], x[id])
	}
	ts.prepKernel()

	// All outputs, standardized with the subset-fit statistics (the
	// hyperparameters were learned in that space).
	yn := make([]float64, n)
	for j, v := range y {
		yn[j] = (v - yMean) / yStd
	}

	// K_nm rows (one sample against every inducing point) are independent:
	// parallel build, fixed per-entry arithmetic; then K_mn is its transpose.
	knm := la.NewMatrix(n, m)
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	mpx.ParallelFor(n, workers, func(j int) {
		ts.kernRow(knm.Row(j), x[j])
	})
	kmn := la.NewMatrix(m, n)
	for j := 0; j < n; j++ {
		for i, v := range knm.Row(j) {
			kmn.Data[i*n+j] = v
		}
	}
	inv := ts.invNoise()
	kmm := ts.buildKmm()
	qmat := la.NewMatrix(m, m)
	mpx.ParallelFor(m, workers, func(i int) {
		ri := kmn.Row(i)
		for j := 0; j <= i; j++ {
			v := kmm.At(i, j) + inv*la.Dot(ri, kmn.Row(j))
			qmat.Set(i, j, v)
			qmat.Set(j, i, v)
		}
	})
	ts.qmat = qmat
	ts.r = make([]float64, m)
	for i := 0; i < m; i++ {
		ts.r[i] = la.Dot(kmn.Row(i), yn)
	}
	if err := ts.refactor(kmm); err != nil {
		return nil, err
	}
	return ts, nil
}

// buildKmm assembles the inducing-set Gram matrix from the stored
// coordinates; rebuilt identically on reload, so factors round-trip bitwise.
// Row i is kernRow at z_i, and (a−b)² = (b−a)² exactly, so the matrix is
// symmetric bit for bit.
func (ts *taskSGP) buildKmm() *la.Matrix {
	kmm := la.NewMatrix(ts.m, ts.m)
	for i := 0; i < ts.m; i++ {
		ts.kernRow(kmm.Row(i), ts.z[i*ts.dim:(i+1)*ts.dim])
	}
	return kmm
}

// refactor derives the posterior factors and weights from (qmat, r): the two
// jittered Cholesky factorizations and alpha. kmm may be nil to rebuild it.
func (ts *taskSGP) refactor(kmm *la.Matrix) error {
	if kmm == nil {
		kmm = ts.buildKmm()
	}
	// block = m: one block, i.e. the unblocked serial recurrence — the m×m
	// factors are small, and their bits are part of the snapshot contract.
	lm, _, err := la.CholeskyJitter(kmm, 0, ts.m, 1)
	if err != nil {
		return fmt.Errorf("surrogate: sgp inducing Gram factorization: %w", err)
	}
	lq, _, err := la.CholeskyJitter(ts.qmat, 0, ts.m, 1)
	if err != nil {
		return fmt.Errorf("surrogate: sgp Q factorization: %w", err)
	}
	ts.lm = la.PackChol(lm)
	ts.lq = la.PackChol(lq)
	alpha := ts.lq.SolveVec(ts.r)
	la.ScaleVec(ts.invNoise(), alpha)
	ts.alpha = alpha
	return nil
}

func (ts *taskSGP) Kind() string  { return KindSGP }
func (ts *taskSGP) NumTasks() int { return 1 }

// NewWorkspace returns the O(m) prediction scratch: k* then the
// forward-substitution vector.
func (ts *taskSGP) NewWorkspace() Workspace { return make([]float64, 2*ts.m) }

//gptlint:hotpath
func (ts *taskSGP) PredictInto(ws Workspace, _ int, x []float64) (mean, variance float64) {
	buf := ws.([]float64)
	kstar, v := buf[:ts.m], buf[ts.m:]
	ts.kernRow(kstar, x)
	mu := la.Dot(kstar, ts.alpha)
	copy(v, kstar)
	ts.lm.ForwardSubst(v)
	vr := ts.prior - la.Dot(v, v)
	copy(v, kstar)
	ts.lq.ForwardSubst(v)
	vr += la.Dot(v, v)
	if vr < 0 {
		vr = 0
	}
	mean = mu*ts.yStd + ts.yMean
	variance = vr * ts.yStd * ts.yStd
	return mean, variance
}

//gptlint:hotpath
func (ts *taskSGP) PredictBatchInto(ws Workspace, _ int, xs [][]float64, mean, variance []float64) {
	for j, x := range xs {
		mean[j], variance[j] = ts.PredictInto(ws, 0, x)
	}
}

// Append folds new observations into the DTC sufficient statistics: for each
// new point, Q_m += σ⁻²·k·kᵀ and r += y·k with k the point's inducing-set
// cross-covariances, then one O(m³) refactorization re-derives the
// posterior. The inducing set and hyperparameters stay frozen at their
// fitted values. Cost is O(k·m²) + O(m³), independent of history length.
func (ts *taskSGP) Append(data *Dataset, workers int) error {
	_ = workers // O(m²) per point: nothing worth parallelizing
	if data.Dim != ts.dim {
		return fmt.Errorf("surrogate: sgp append got dim %d, model has %d", data.Dim, ts.dim)
	}
	kvec := make([]float64, ts.m)
	inv := ts.invNoise()
	q := ts.qmat
	for j, x := range data.X[0] {
		ts.kernRow(kvec, x)
		yn := (data.Y[0][j] - ts.yMean) / ts.yStd
		for p := 0; p < ts.m; p++ {
			kp := inv * kvec[p]
			row := q.Row(p)
			for p2 := 0; p2 <= p; p2++ {
				row[p2] += kp * kvec[p2]
			}
			ts.r[p] += yn * kvec[p]
		}
		ts.n++
	}
	// Mirror the strict-lower updates into the upper triangle.
	for p := 0; p < ts.m; p++ {
		for p2 := 0; p2 < p; p2++ {
			q.Set(p2, p, q.At(p, p2))
		}
	}
	return ts.refactor(nil)
}

// sgpTaskSnapshot is the wire form of one task's sparse GP. Everything the
// posterior needs is either carried ((Q_m, r) sufficient statistics, packed
// lower triangle for Q_m) or rebuilt deterministically from carried state
// (K_mm from the inducing coordinates), so a reloaded model predicts bitwise
// identically — and can keep absorbing appends.
type sgpTaskSnapshot struct {
	Dim    int         `json:"dim"`
	N      int         `json:"n"`
	M      int         `json:"m"`
	Z      gp.NFVec    `json:"z"`
	Ls     gp.NFVec    `json:"ls"`
	Signal gp.NFScalar `json:"signal"`
	Noise  gp.NFScalar `json:"noise"`
	Theta  gp.NFVec    `json:"theta"`
	YMean  gp.NFScalar `json:"y_mean"`
	YStd   gp.NFScalar `json:"y_std"`
	Q      gp.NFVec    `json:"q_packed"`
	R      gp.NFVec    `json:"r"`
}

func (ts *taskSGP) MarshalBinary() ([]byte, error) {
	packed := make([]float64, 0, ts.m*(ts.m+1)/2)
	for p := 0; p < ts.m; p++ {
		packed = append(packed, ts.qmat.Row(p)[:p+1]...)
	}
	return json.Marshal(sgpTaskSnapshot{
		Dim: ts.dim, N: ts.n, M: ts.m,
		Z: ts.z, Ls: ts.ls,
		Signal: gp.NFScalar(ts.signal), Noise: gp.NFScalar(ts.noise),
		Theta: ts.theta,
		YMean: gp.NFScalar(ts.yMean), YStd: gp.NFScalar(ts.yStd),
		Q: packed, R: ts.r,
	})
}

func (sgpFitter) UnmarshalBinary(blob []byte) (Model, error) {
	var snap sgpTaskSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return nil, err
	}
	if snap.Dim <= 0 || snap.M <= 0 {
		return nil, errors.New("surrogate: sgp snapshot missing dimensions")
	}
	// Accepting needs len(R) = M and len(Ls) = Dim, which bound both by the
	// blob's length, so neither product can overflow into a false match.
	if len(snap.Z) != snap.M*snap.Dim || len(snap.Ls) != snap.Dim ||
		len(snap.Q) != snap.M*(snap.M+1)/2 || len(snap.R) != snap.M {
		return nil, errors.New("surrogate: sgp snapshot shape mismatch")
	}
	ts := &taskSGP{
		dim:    snap.Dim,
		n:      snap.N,
		m:      snap.M,
		z:      snap.Z,
		ls:     snap.Ls,
		signal: float64(snap.Signal),
		noise:  float64(snap.Noise),
		theta:  snap.Theta,
		yMean:  float64(snap.YMean),
		yStd:   float64(snap.YStd),
	}
	if ts.yStd == 0 { // zero std never leaves a fit; guard against hand-built snapshots
		ts.yStd = 1
	}
	ts.prior = ts.signal + ts.noise
	ts.prepKernel()
	ts.qmat = la.NewMatrix(ts.m, ts.m)
	at := 0
	for p := 0; p < ts.m; p++ {
		for p2 := 0; p2 <= p; p2++ {
			ts.qmat.Set(p, p2, snap.Q[at])
			ts.qmat.Set(p2, p, snap.Q[at])
			at++
		}
	}
	ts.r = snap.R
	if err := ts.refactor(nil); err != nil {
		return nil, err
	}
	return ts, nil
}
