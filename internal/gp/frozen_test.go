package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/mpx"
)

// The three O(n²) passes of the LCM — covariance assembly, gradient sweep,
// k* — as they were before they ran on la's lane kernels: one pair (or one
// training row) at a time, math.Exp per kernel value, a pair-major distance
// tensor, the exact-zero skip in the lengthscale accumulation. They are
// frozen here as the oracle the restructured passes must match bit for bit;
// the O(n³) steps between them call the same la routines the engine does.

// frozenPairSq is the pair-major tensor the frozen passes read:
// sq[p*dim+d] = (x_r[d] - x_s[d])² for pair p = pairStart(r) + (s-r).
func frozenPairSq(flatX [][]float64, dim int) []float64 {
	n := len(flatX)
	sq := make([]float64, 0, n*(n+1)/2*dim)
	for r := 0; r < n; r++ {
		for s := r; s < n; s++ {
			for d := 0; d < dim; d++ {
				diff := flatX[r][d] - flatX[s][d]
				sq = append(sq, diff*diff)
			}
		}
	}
	return sq
}

// frozenTables is lcmEngine.prepare: coef[q][ti*T+tj] and winv[q][d] = 1/l².
func frozenTables(m *LCM) (coef, winv [][]float64) {
	T := m.NumTasks
	for q := 0; q < m.Q; q++ {
		cq := make([]float64, T*T)
		for ti := 0; ti < T; ti++ {
			for tj := 0; tj < T; tj++ {
				cq[ti*T+tj] = m.coef(q, ti, tj)
			}
		}
		wq := make([]float64, m.Dim)
		for d := range wq {
			wq[d] = 1 / (m.Ls[q][d] * m.Ls[q][d])
		}
		coef, winv = append(coef, cq), append(winv, wq)
	}
	return coef, winv
}

// frozenAssemble is the pre-kernel assembleSigma body: Σ and the pair-major
// kernel values kq[p*Q+q].
func frozenAssemble(m *LCM, sqAll []float64, taskOf []int, coef, winv [][]float64) (*la.Matrix, []float64) {
	n := len(taskOf)
	Q, T, dim := m.Q, m.NumTasks, m.Dim
	sigma := la.NewMatrix(n, n)
	kqAll := make([]float64, n*(n+1)/2*Q)
	sqOff, kqOff := 0, 0
	for r := 0; r < n; r++ {
		tr := taskOf[r]
		trT := tr * T
		dr := m.D[tr]
		sigRow := sigma.Data[r*n : (r+1)*n]
		for s := r; s < n; s++ {
			ts := taskOf[s]
			v := 0.0
			for q := 0; q < Q; q++ {
				w := winv[q]
				acc := 0.0
				for d := 0; d < dim; d++ {
					acc += w[d] * sqAll[sqOff+d]
				}
				k := math.Exp(-0.5 * acc)
				kqAll[kqOff+q] = k
				v += coef[q][trT+ts] * k
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
	return sigma, kqAll
}

// frozenSweep is the pre-kernel gradient sweep: per 32-row chunk partial
// sums, merged in chunk order, with the sd == 0 skip. It returns V (Q·T·T),
// gl (Q·dim) and dsum (T).
func frozenSweep(alpha []float64, inv *la.Matrix, kqAll, sqAll []float64, taskOf []int, coef [][]float64, Q, T, dim int) (v0, gl0, d0 []float64) {
	n := len(taskOf)
	TT := T * T
	pairStart := func(r int) int { return r*n - r*(r-1)/2 }
	for c := 0; c < mpx.NumChunks(n, gradChunkRows); c++ {
		lo, hi := c*gradChunkRows, (c+1)*gradChunkRows
		if hi > n {
			hi = n
		}
		vbuf := make([]float64, Q*TT)
		glbuf := make([]float64, Q*dim)
		dbuf := make([]float64, T)
		eq := make([]float64, Q)
		for r := lo; r < hi; r++ {
			tr := taskOf[r]
			trT := tr * T
			ar := alpha[r]
			invRow := inv.Data[r*n : (r+1)*n]
			dbuf[tr] += ar*ar - invRow[r]
			pp := pairStart(r) + 1
			kqOff := pp * Q
			sqOff := pp * dim
			for s := r + 1; s < n; s++ {
				mm := ar*alpha[s] - invRow[s]
				tt := trT + taskOf[s]
				for q := 0; q < Q; q++ {
					mk := mm * kqAll[kqOff+q]
					vbuf[q*TT+tt] += mk
					eq[q] = mk * coef[q][tt]
				}
				for d := 0; d < dim; d++ {
					sd := sqAll[sqOff+d]
					if sd == 0 { //gptlint:ignore float-eq frozen pre-kernel oracle; the exact-zero skip is what the kernel path must reproduce
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
		if c == 0 {
			v0, gl0, d0 = vbuf, glbuf, dbuf
			continue
		}
		for i, v := range vbuf {
			v0[i] += v
		}
		for i, v := range glbuf {
			gl0[i] += v
		}
		for i, v := range dbuf {
			d0[i] += v
		}
	}
	return v0, gl0, d0
}

// frozenLogLikGrad is the pre-kernel lcmEngine.logLikGrad, serial, returning
// Σ as well.
func frozenLogLikGrad(theta []float64, layout hyperLayout, flatX [][]float64, taskOf []int, yn []float64) (float64, []float64, *la.Matrix, error) {
	m := thetaToModel(theta, layout)
	n := len(flatX)
	Q, T, dim := layout.q, layout.tasks, layout.dim
	coef, winv := frozenTables(m)
	sqAll := frozenPairSq(flatX, dim)
	sigma, kqAll := frozenAssemble(m, sqAll, taskOf, coef, winv)

	l, _, err := la.CholeskyJitter(sigma, 0, cholBlock, 1)
	if err != nil {
		return 0, nil, sigma, err
	}
	alpha := la.SolveCholVec(l, yn)
	ll := -0.5*la.Dot(yn, alpha) - 0.5*la.LogDetFromChol(l) - 0.5*float64(n)*math.Log(2*math.Pi)
	inv := la.ParallelCholInverse(l, 1)
	v0, gl0, d0 := frozenSweep(alpha, inv, kqAll, sqAll, taskOf, coef, Q, T, dim)

	grad := make([]float64, layout.total())
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
			grad[layout.aAt(q, i)] = ga
			grad[layout.bAt(q, i)] = 0.5 * m.B[q][i] * tii
		}
		for d := 0; d < dim; d++ {
			grad[layout.lsAt(q, d)] = gl0[q*dim+d] * winv[q][d]
		}
	}
	for i := 0; i < T; i++ {
		grad[layout.dAt(i)] = 0.5 * m.D[i] * d0[i]
	}
	return ll, grad, sigma, nil
}

// frozenPredict is the pre-kernel PredictInto: k* one training row at a
// time, math.Exp per latent, then the same mean and variance algebra.
func frozenPredict(m *LCM, task int, x []float64) (mean, variance float64) {
	n := len(m.flatX)
	dim, Q := m.Dim, m.Q
	kstar := make([]float64, n)
	diff2 := make([]float64, dim)
	for r := 0; r < n; r++ {
		xr := m.flatX[r]
		for d, xd := range x {
			diff := xd - xr[d]
			diff2[d] = diff * diff
		}
		v := 0.0
		c0 := (task*m.NumTasks + m.taskOf[r]) * Q
		for q, c := range m.coefTab[c0 : c0+Q] {
			if c == 0 { //gptlint:ignore float-eq frozen pre-kernel oracle; exact-zero coefficient skip as it was
				continue
			}
			acc := 0.0
			w := m.predWinv[q*dim : (q+1)*dim]
			for d, sd := range diff2 {
				acc += w[d] * sd
			}
			v += c * math.Exp(-acc)
		}
		kstar[r] = v
	}
	mu := la.Dot(kstar, m.alpha)
	v := la.CopyVec(kstar)
	m.chol.ForwardSubst(v)
	variance = m.predPrior[task] - la.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	mean = mu*m.yStd + m.yMean
	variance *= m.yStd * m.yStd
	return mean, variance
}

// sameBits is bit equality with all NaNs equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// gridDataset is syntheticDataset with the last ⌈dim/2⌉ coordinates drawn
// from a four-level grid, as integer and categorical tuning parameters
// normalize to: most pairs then have an exact-zero distance in some
// dimension, and some points coincide entirely.
func gridDataset(rng *rand.Rand, tasks, samples, dim int) *Dataset {
	d := syntheticDataset(rng, tasks, samples, dim, 0.05)
	for i := range d.X {
		for _, x := range d.X[i] {
			for k := dim / 2; k < dim; k++ {
				x[k] = float64(rng.Intn(4)) / 3
			}
		}
		if i > 0 {
			copy(d.X[i][0], d.X[0][0]) // one point shared across tasks
		}
	}
	return d
}

// hostileThetas returns hyperparameter vectors at the edges: lengthscales of
// +Inf (a dimension switched off) and 0 (log l = -Inf), tiny lengthscales
// whose kernel arguments leave exp's fast range, a diagonal boost that
// overflows, and huge and zero mixing coefficients.
func hostileThetas(layout hyperLayout, rng *rand.Rand) [][]float64 {
	var out [][]float64
	add := func(edit func(theta []float64)) {
		theta := randomInit(layout, rng)
		edit(theta)
		out = append(out, theta)
	}
	add(func(th []float64) { th[layout.lsAt(0, 0)] = math.Inf(1) })
	add(func(th []float64) { th[layout.lsAt(layout.q-1, layout.dim-1)] = math.Inf(-1) })
	add(func(th []float64) {
		for d := 0; d < layout.dim; d++ {
			th[layout.lsAt(0, d)] = -4 // l ≈ 0.018: arguments down to −1500 and below
		}
	})
	add(func(th []float64) { th[layout.bAt(0, 0)] = 800 }) // e^800 overflows
	add(func(th []float64) { th[layout.bAt(0, layout.tasks-1)] = 700 })
	add(func(th []float64) { th[layout.aAt(0, 0)] = 1e160 })
	add(func(th []float64) {
		for i := 0; i < layout.tasks; i++ {
			th[layout.aAt(0, i)] = 0
		}
	})
	add(func(th []float64) { th[layout.dAt(0)] = -800 }) // noise underflows to 0
	return out
}

// TestEngineMatchesFrozenPassesBitwise: logLikGrad's likelihood, every
// gradient entry and Σ equal the frozen per-pair passes bit for bit — on
// real and grid coordinates, across task and latent counts that fill one
// lane block, part of one and more than one, at sizes on both sides of the
// 32-row chunk and 64-column block boundaries, at ordinary and hostile
// hyperparameters; where the frozen evaluation fails, so does the engine.
//
// The frozen sweep keeps the exact-zero skip the engine's lane kernel retired
// (gradSweep), and the two differ only when a non-finite per-pair factor
// meets a zero distance: 0·Inf is NaN to the kernel and nothing to the skip.
// Grid coordinates put a zero distance in most pairs, so equality here, at
// every hostile vector that still factors, and in
// TestEngineMatchesFrozenOnInfiniteDiagonal is what pins that corner
// unreachable.
func TestEngineMatchesFrozenPassesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for ci, cfg := range []struct{ tasks, samples, dim, q int }{
		{1, 5, 1, 1},
		{1, 31, 3, 1},
		{1, 65, 2, 1},
		{2, 16, 4, 2},
		{2, 33, 5, 2},
		{3, 11, 3, 3},
		{3, 22, 8, 3},
		{3, 43, 3, 2},
		{5, 13, 9, 5},
		{5, 26, 4, 4},
		{5, 7, 2, 5},
	} {
		for _, grid := range []bool{false, true} {
			data := syntheticDataset(rng, cfg.tasks, cfg.samples, cfg.dim, 0.05)
			if grid {
				data = gridDataset(rng, cfg.tasks, cfg.samples, cfg.dim)
			}
			layout := hyperLayout{q: cfg.q, dim: cfg.dim, tasks: cfg.tasks}
			flatX, taskOf, yn := flatten(data)
			n := len(flatX)
			if ci%2 == 1 {
				// Tasks interleaved, as a model reloaded after appends has
				// them: runs of one task shrink to a sample or two.
				rng.Shuffle(n, func(i, j int) {
					flatX[i], flatX[j] = flatX[j], flatX[i]
					taskOf[i], taskOf[j] = taskOf[j], taskOf[i]
					yn[i], yn[j] = yn[j], yn[i]
				})
			}
			eng := newLCMEngine(newPairCache(flatX, cfg.dim), layout, taskOf, yn, 2)
			thetas := hostileThetas(layout, rng)
			for i := 0; i < 3; i++ {
				thetas = append(thetas, randomInit(layout, rng))
			}
			for ti, theta := range thetas {
				name := fmt.Sprintf("config %d: δ=%d n=%d β=%d Q=%d grid=%v theta %d", ci, cfg.tasks, n, cfg.dim, cfg.q, grid, ti)
				llF, gradF, sigmaF, errF := frozenLogLikGrad(theta, layout, flatX, taskOf, yn)
				ll, grad, err := eng.logLikGrad(theta)
				for i, v := range sigmaF.Data {
					if !sameBits(eng.sigma.Data[i], v) {
						t.Fatalf("%s: Σ[%d,%d] = %v, frozen %v", name, i/n, i%n, eng.sigma.Data[i], v)
					}
				}
				if (err == nil) != (errF == nil) {
					t.Fatalf("%s: engine error %v, frozen error %v", name, err, errF)
				}
				if err != nil {
					continue
				}
				if !sameBits(ll, llF) {
					t.Errorf("%s: ll %v, frozen %v", name, ll, llF)
				}
				for p := range gradF {
					if !sameBits(grad[p], gradF[p]) {
						t.Errorf("%s: grad[%d] %v, frozen %v", name, p, grad[p], gradF[p])
					}
				}
			}
		}
	}
}

// TestEngineMatchesFrozenOnInfiniteDiagonal: a task with a single sample
// and an overflowing diagonal boost puts +Inf on Σ's diagonal and nowhere
// else, which the factorization accepts (pivot +Inf, a zero row below it).
// Whatever the frozen evaluation then returns — an infinite likelihood, NaN
// gradient entries — the engine returns too.
func TestEngineMatchesFrozenOnInfiniteDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	data := gridDataset(rng, 2, 12, 3)
	data.X[1], data.Y[1] = data.X[1][1:2], data.Y[1][1:2]
	layout := hyperLayout{q: 2, dim: 3, tasks: 2}
	flatX, taskOf, yn := flatten(data)
	eng := newLCMEngine(newPairCache(flatX, 3), layout, taskOf, yn, 1)
	theta := randomInit(layout, rng)
	theta[layout.bAt(1, 1)] = 800
	llF, gradF, _, errF := frozenLogLikGrad(theta, layout, flatX, taskOf, yn)
	ll, grad, err := eng.logLikGrad(theta)
	if errF != nil || err != nil {
		t.Fatalf("engine error %v, frozen error %v, want an accepted factorization", err, errF)
	}
	if !math.IsInf(eng.sigma.At(len(flatX)-1, len(flatX)-1), 1) {
		t.Fatalf("Σ's last diagonal entry is %v, want +Inf", eng.sigma.At(len(flatX)-1, len(flatX)-1))
	}
	if !sameBits(ll, llF) {
		t.Errorf("ll %v, frozen %v", ll, llF)
	}
	for p := range gradF {
		if !sameBits(grad[p], gradF[p]) {
			t.Errorf("grad[%d] %v, frozen %v", p, grad[p], gradF[p])
		}
	}
}

// TestPredictIntoMatchesFrozenBitwise: mean and variance equal the frozen
// row-at-a-time evaluation bit for bit, for fitted models with one to five
// latents on real and grid coordinates, at training points (exact-zero
// distances), far points (kernel arguments past exp's fast range), and again
// after the model has grown by an append.
func TestPredictIntoMatchesFrozenBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, cfg := range []struct{ tasks, samples, dim, q int }{
		{1, 9, 1, 1}, {2, 17, 3, 2}, {3, 22, 8, 3}, {5, 14, 4, 5}, {4, 16, 5, 4},
	} {
		for _, grid := range []bool{false, true} {
			data := syntheticDataset(rng, cfg.tasks, cfg.samples, cfg.dim, 0.05)
			if grid {
				data = gridDataset(rng, cfg.tasks, cfg.samples, cfg.dim)
			}
			model, err := FitLCM(data, FitOptions{Q: cfg.q, NumStarts: 1, MaxIter: 8, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			ws := model.NewPredictWorkspace()
			check := func(stage string) {
				t.Helper()
				for trial := 0; trial < 40; trial++ {
					x := make([]float64, cfg.dim)
					for d := range x {
						x[d] = rng.Float64()
					}
					switch trial % 4 {
					case 1:
						copy(x, model.flatX[rng.Intn(len(model.flatX))])
					case 2:
						x[rng.Intn(cfg.dim)] = 40 // far outside the unit cube
					case 3:
						for d := cfg.dim / 2; d < cfg.dim; d++ {
							x[d] = float64(rng.Intn(4)) / 3
						}
					}
					task := trial % cfg.tasks
					mu, v := model.PredictInto(ws, task, x)
					muF, vF := frozenPredict(model, task, x)
					if !sameBits(mu, muF) || !sameBits(v, vF) {
						t.Fatalf("δ=%d β=%d Q=%d grid=%v %s: PredictInto (%v, %v), frozen (%v, %v)", cfg.tasks, cfg.dim, cfg.q, grid, stage, mu, v, muF, vF)
					}
				}
			}
			check("fitted")
			extra := syntheticDataset(rng, 1, 3, cfg.dim, 0.05)
			if err := model.AppendObservations(extra.X[0], []int{0, cfg.tasks - 1, 0}, extra.Y[0], 1); err != nil {
				t.Fatal(err)
			}
			check("after append")
		}
	}
}
