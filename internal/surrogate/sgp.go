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

// taskSGP is one task's fitted sparse GP: a view over the exact fit on its
// inducing subset — kernel rows (the fit's k* at task 0), prior variance,
// noise, output standardization and hyperparameters all read off it — plus
// the DTC sufficient statistics qmat and r. Append folds new points into
// them and re-derives Q_m's factor and alpha, never touching the O(n)
// training set again; K_mm's factor depends on the inducing rows and the
// hyperparameters alone, so Fit computes it once.
type taskSGP struct {
	fit *gp.LCM     // the exact single-task fit on the inducing subset
	z   [][]float64 // the m inducing rows: fit's training rows, in its order
	n   int         // samples absorbed (bookkeeping only)

	qmat  *la.Matrix    // Q_m (no jitter), grown by Append
	r     []float64     // K_mn·y accumulator
	lm    *la.TriPacked // chol(K_mm + jitter·I), fixed at Fit
	lq    *la.TriPacked // chol(Q_m + jitter·I)
	alpha []float64     // σ⁻²·Q_m⁻¹·r
}

func (ts *taskSGP) invNoise() float64 {
	ns := ts.fit.D[0]
	if ns < noiseFloor {
		ns = noiseFloor
	}
	return 1 / ns
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
	if len(opts.WarmStart) > 0 {
		warmTheta = opts.WarmStart[0]
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
	ts := &taskSGP{fit: fit, z: subX, n: n}

	// All outputs, standardized with the subset-fit statistics (the
	// hyperparameters were learned in that space).
	yMean, yStd := fit.OutputStats()
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
	mpx.ParallelChunks(n, (n+workers-1)/workers, workers, func(_, lo, hi int) {
		ws := fit.NewPredictWorkspace()
		for j := lo; j < hi; j++ {
			fit.KStarInto(ws, knm.Row(j), 0, x[j])
		}
	})
	kmn := la.NewMatrix(m, n)
	for j := 0; j < n; j++ {
		for i, v := range knm.Row(j) {
			kmn.Data[i*n+j] = v
		}
	}
	// K_mm's row i is K_nm's row at z_i's sample: the subset fit's k* at
	// z_i, symmetric bit for bit since (a−b)² = (b−a)² exactly.
	kmm := la.NewMatrix(m, m)
	for i, id := range idx {
		copy(kmm.Row(i), knm.Row(id))
	}
	inv := ts.invNoise()
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
	// block = m: one block, i.e. the unblocked serial recurrence — the m×m
	// factors are small.
	lm, _, err := la.CholeskyJitter(kmm, 0, m, 1)
	if err != nil {
		return nil, fmt.Errorf("surrogate: sgp inducing Gram factorization: %w", err)
	}
	ts.lm = la.PackChol(lm)
	if err := ts.refactor(); err != nil {
		return nil, err
	}
	return ts, nil
}

// refactor derives Q_m's jittered Cholesky factor and alpha from (qmat, r),
// one block like K_mm's.
func (ts *taskSGP) refactor() error {
	lq, _, err := la.CholeskyJitter(ts.qmat, 0, len(ts.z), 1)
	if err != nil {
		return fmt.Errorf("surrogate: sgp Q factorization: %w", err)
	}
	ts.lq = la.PackChol(lq)
	alpha := ts.lq.SolveVec(ts.r)
	la.ScaleVec(ts.invNoise(), alpha)
	ts.alpha = alpha
	return nil
}

func (ts *taskSGP) Kind() string  { return KindSGP }
func (ts *taskSGP) NumTasks() int { return 1 }

// sgpWorkspace is one goroutine's O(m) prediction scratch: the subset
// fit's own k* workspace, k* and the forward-substitution vector.
type sgpWorkspace struct {
	fit      *gp.PredictWorkspace
	kstar, v []float64
}

func (ts *taskSGP) NewWorkspace() Workspace {
	m := len(ts.z)
	buf := make([]float64, 2*m)
	return &sgpWorkspace{fit: ts.fit.NewPredictWorkspace(), kstar: buf[:m], v: buf[m:]}
}

//gptlint:hotpath
func (ts *taskSGP) PredictInto(ws Workspace, _ int, x []float64) (mean, variance float64) {
	w := ws.(*sgpWorkspace)
	kstar, v := ts.fit.KStarInto(w.fit, w.kstar, 0, x), w.v
	mu := la.Dot(kstar, ts.alpha)
	copy(v, kstar)
	ts.lm.ForwardSubst(v)
	vr := ts.fit.PriorVariance(0) - la.Dot(v, v)
	copy(v, kstar)
	ts.lq.ForwardSubst(v)
	vr += la.Dot(v, v)
	if vr < 0 {
		vr = 0
	}
	yMean, yStd := ts.fit.OutputStats()
	mean = mu*yStd + yMean
	variance = vr * yStd * yStd
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
// cross-covariances, then one O(m³) factorization of Q_m re-derives the
// posterior. The inducing set and hyperparameters stay frozen at their
// fitted values. Cost is O(k·m²) + O(m³), independent of history length.
func (ts *taskSGP) Append(data *Dataset, workers int) error {
	_ = workers // O(m²) per point: nothing worth parallelizing
	if data.Dim != ts.fit.Dim {
		return fmt.Errorf("surrogate: sgp append got dim %d, model has %d", data.Dim, ts.fit.Dim)
	}
	m := len(ts.z)
	ws, kvec := ts.fit.NewPredictWorkspace(), make([]float64, m)
	inv := ts.invNoise()
	yMean, yStd := ts.fit.OutputStats()
	q := ts.qmat
	for j, x := range data.X[0] {
		ts.fit.KStarInto(ws, kvec, 0, x)
		yn := (data.Y[0][j] - yMean) / yStd
		for p := 0; p < m; p++ {
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
	for p := 0; p < m; p++ {
		for p2 := 0; p2 < p; p2++ {
			q.Set(p2, p, q.At(p, p2))
		}
	}
	return ts.refactor()
}

// sgpTaskSnapshot is the wire form of one task's sparse GP: its dimension
// and the subset fit's hyperparameter vector, all a later fit's warm start
// reads. Snapshots from builds that also carried the sufficient statistics
// and the inducing set decode to the same pair; encoding/json skips the
// rest.
type sgpTaskSnapshot struct {
	Dim   int      `json:"dim"`
	Theta gp.NFVec `json:"theta"`
}

func (ts *taskSGP) MarshalBinary() ([]byte, error) {
	return json.Marshal(sgpTaskSnapshot{Dim: ts.fit.Dim, Theta: ts.fit.Hyperparameters()})
}

// decodeSGPTask is one sgp cell's WarmStart: the subset fit's
// hyperparameters as they were saved.
func decodeSGPTask(blob []byte) ([]float64, error) {
	var snap sgpTaskSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return nil, err
	}
	if snap.Dim <= 0 || len(snap.Theta) == 0 {
		return nil, errors.New("surrogate: sgp snapshot missing dimensions or hyperparameters")
	}
	return snap.Theta, nil
}
