package gp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// flatten mirrors FitLCM's dataset flattening for direct engine tests.
func flatten(data *Dataset) (flatX [][]float64, taskOf []int, yn []float64) {
	var flatY []float64
	for i := range data.X {
		for j := range data.X[i] {
			flatX = append(flatX, data.X[i][j])
			taskOf = append(taskOf, i)
			flatY = append(flatY, data.Y[i][j])
		}
	}
	mean, std := meanStd(flatY)
	yn = make([]float64, len(flatY))
	for i, v := range flatY {
		yn[i] = (v - mean) / std
	}
	return flatX, taskOf, yn
}

// TestEngineMatchesReference: on real and grid coordinates, tasks in order
// and interleaved (as a model reloaded after appends has them), task and
// latent counts that fill one lane block, part of one and more than one,
// sizes on both sides of the 32-row chunk and the 64-row Cholesky block, at
// ordinary and hostile hyperparameters, an evaluation matches the reference
// (matchReference).
func TestEngineMatchesReference(t *testing.T) {
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
				matchReference(t, name, eng, flatX, theta)
			}
		}
	}
}

// TestEngineMatchesReferenceOnInfiniteDiagonal: a task with a single sample
// and an overflowing diagonal boost puts +Inf on Σ's diagonal and nowhere
// else, which the factorization accepts (pivot +Inf, a zero row below it).
// The likelihood and gradient entries that then come out non-finite are the
// reference's.
func TestEngineMatchesReferenceOnInfiniteDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	data := gridDataset(rng, 2, 12, 3)
	data.X[1], data.Y[1] = data.X[1][1:2], data.Y[1][1:2]
	layout := hyperLayout{q: 2, dim: 3, tasks: 2}
	flatX, taskOf, yn := flatten(data)
	eng := newLCMEngine(newPairCache(flatX, 3), layout, taskOf, yn, 1)
	theta := randomInit(layout, rng)
	theta[layout.bAt(1, 1)] = 800
	if err := matchReference(t, "infinite diagonal", eng, flatX, theta); err != nil {
		t.Fatalf("engine error %v, want an accepted factorization", err)
	}
	if last := eng.sigma.At(len(flatX)-1, len(flatX)-1); !math.IsInf(last, 1) {
		t.Fatalf("Σ's last diagonal entry is %v, want +Inf", last)
	}
}

// matchReference evaluates eng at theta and checks it against the reference:
// Σ is covariance's and k* (at a training point and at an interior one) is
// refKstar's, bit for bit; the engine fails exactly where
// lcmLogLikGradReference does; and otherwise the likelihood is the
// reference's bit for bit, and every gradient entry is non-finite exactly
// where the reference's is and else within 1e-9 of it relative, plus what
// summing its terms in another order may change. It returns the engine's
// error.
//
// The reference keeps the exact-zero skips gradSweep's lane kernel retired,
// so the two would part where a non-finite per-pair factor meets a zero
// distance (0·Inf is NaN to the kernel and nothing to the skip). Grid
// coordinates put a zero distance in most pairs, so agreement at every
// hostile vector that still factors, and on the infinite diagonal, is what
// pins that corner unreachable.
func matchReference(t *testing.T, name string, eng *lcmEngine, flatX [][]float64, theta []float64) error {
	t.Helper()
	layout, taskOf, n := eng.layout, eng.taskOf, len(flatX)
	ll, grad, err := eng.logLikGrad(theta)
	m := thetaToModel(theta, layout)
	for i, v := range m.covariance(flatX, taskOf).Data {
		if !sameBits(eng.sigma.Data[i], v) {
			t.Fatalf("%s: Σ[%d,%d] = %v, reference %v", name, i/n, i%n, eng.sigma.Data[i], v)
		}
	}
	m.flatX, m.taskOf = flatX, taskOf
	m.prepPredict()
	ws := m.NewPredictWorkspace()
	inside := make([]float64, layout.dim)
	for d := range inside {
		inside[d] = float64(d+1) / float64(layout.dim+2)
	}
	for _, x := range [][]float64{flatX[0], inside} {
		want := refKstar(m, taskOf[n-1], x)
		for r, k := range m.kstarInto(ws, ws.cols[0], taskOf[n-1], x) {
			if !sameBits(k, want[r]) {
				t.Fatalf("%s: k*(%v)[%d] = %v, reference %v", name, x, r, k, want[r])
			}
		}
	}

	llRef, gradRef, scale, errRef := lcmLogLikGradReference(theta, layout, flatX, taskOf, eng.yn)
	if (err == nil) != (errRef == nil) {
		t.Fatalf("%s: engine error %v, reference error %v", name, err, errRef)
	}
	if err != nil {
		return err
	}
	if !sameBits(ll, llRef) {
		t.Errorf("%s: ll %v, reference %v", name, ll, llRef)
	}
	// What summing the same terms in another order may change: some n²
	// roundings, each at most ε·scale.
	reorder := float64(n*n+8) * 0x1p-52
	for p, want := range gradRef {
		got := grad[p]
		switch {
		case math.IsNaN(want) || math.IsInf(want, 0) || math.IsNaN(got) || math.IsInf(got, 0):
			if !sameBits(got, want) {
				t.Errorf("%s: grad[%d] %v, reference %v", name, p, got, want)
			}
		case math.Abs(got-want) > 1e-9*(1+math.Abs(want))+reorder*scale[p]:
			t.Errorf("%s: grad[%d] %v, reference %v (Σ|term| %v)", name, p, got, want, scale[p])
		}
	}
	return nil
}

// The engine's chunked reductions and the blocked Cholesky must make every
// result bitwise identical for any worker count — this is what guarantees
// FitOptions.Workers never changes the fitted model.
func TestEngineWorkerCountInvariance(t *testing.T) {
	// Worker pools cap CPU-bound workers at GOMAXPROCS; raise it so the
	// parallel paths genuinely run concurrently even on a 1-CPU machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(33))
	data := syntheticDataset(rng, 4, 30, 3, 0.05) // n = 120 > cholBlock and > one chunk
	layout := hyperLayout{q: 2, dim: data.Dim, tasks: data.NumTasks()}
	flatX, taskOf, yn := flatten(data)
	cache := newPairCache(flatX, data.Dim)
	theta := randomInit(layout, rng)

	ll1, g1, err := newLCMEngine(cache, layout, taskOf, yn, 1).logLikGrad(theta)
	if err != nil {
		t.Fatal(err)
	}
	grad1 := append([]float64(nil), g1...)
	for _, w := range []int{2, 3, 4, 8} {
		llw, gw, err := newLCMEngine(cache, layout, taskOf, yn, w).logLikGrad(theta)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if llw != ll1 {
			t.Errorf("workers=%d: ll %v != serial %v", w, llw, ll1)
		}
		for p := range gw {
			if gw[p] != grad1[p] {
				t.Errorf("workers=%d param %d: grad %v != serial %v", w, p, gw[p], grad1[p])
			}
		}
	}
}

// FitLCM with Workers=1 and Workers=4 must produce the identical best
// log-likelihood at a fixed seed, including at sizes that trigger the
// blocked Cholesky and multi-chunk gradient sweeps (the regression guard
// for the parallel gradient merge).
func TestFitLCMWorkersIdenticalLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(44))
	data := syntheticDataset(rng, 3, 30, 2, 0.02) // n = 90 > cholBlock
	opts := FitOptions{Q: 2, NumStarts: 2, MaxIter: 12, Seed: 45}

	o1 := opts
	o1.Workers = 1
	m1, err := FitLCM(data, o1)
	if err != nil {
		t.Fatal(err)
	}
	o4 := opts
	o4.Workers = 4
	m4, err := FitLCM(data, o4)
	if err != nil {
		t.Fatal(err)
	}
	if m1.LogLik != m4.LogLik {
		t.Fatalf("Workers changed the fit: %v vs %v (diff %g)", m1.LogLik, m4.LogLik, m1.LogLik-m4.LogLik)
	}
	// The fitted prediction state must agree too.
	ws := m4.NewPredictWorkspace()
	for trial := 0; trial < 20; trial++ {
		x := []float64{rng.Float64(), rng.Float64()}
		task := trial % data.NumTasks()
		mu1, v1 := m1.Predict(task, x)
		mu4, v4 := m4.PredictInto(ws, task, x)
		if math.Abs(mu1-mu4) > 1e-10 || math.Abs(v1-v4) > 1e-10 {
			t.Fatalf("prediction diverged: (%v,%v) vs (%v,%v)", mu1, v1, mu4, v4)
		}
	}
}

// TestPredictionsMatchReferenceBitwise: k*, PredictBatchInto, PredictInto
// and Predict return refKstar's and refPredict's bits, for fitted models with
// one to five latents on real and grid coordinates, n on both sides of the
// 64-row block, at random points, training points (exact-zero distances), far
// points (kernel arguments past exp's fast range) and grid points, in batches
// of every length from one to nine (whole groups of four and every
// remainder), before and after an append grew the model.
func TestPredictionsMatchReferenceBitwise(t *testing.T) {
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
			ws, wsBatch := model.NewPredictWorkspace(), model.NewPredictWorkspace()
			check := func(stage string) {
				t.Helper()
				for size := 1; size <= 9; size++ {
					xs := make([][]float64, size)
					for j := range xs {
						x := make([]float64, cfg.dim)
						for d := range x {
							x[d] = rng.Float64()
						}
						switch (size + j) % 4 {
						case 1:
							copy(x, model.flatX[rng.Intn(len(model.flatX))])
						case 2:
							x[rng.Intn(cfg.dim)] = 40 // far outside the unit cube
						case 3:
							for d := cfg.dim / 2; d < cfg.dim; d++ {
								x[d] = float64(rng.Intn(4)) / 3
							}
						}
						xs[j] = x
					}
					task := size % cfg.tasks
					mean, variance := make([]float64, size), make([]float64, size)
					model.PredictBatchInto(wsBatch, task, xs, mean, variance)
					for j, x := range xs {
						name := fmt.Sprintf("δ=%d β=%d Q=%d grid=%v %s, batch of %d, point %d", cfg.tasks, cfg.dim, cfg.q, grid, stage, size, j)
						muI, vI := model.PredictInto(ws, task, x) // first: it resizes ws after an append
						kstar := refKstar(model, task, x)
						for r, k := range model.kstarInto(ws, ws.cols[0], task, x) {
							if !sameBits(k, kstar[r]) {
								t.Fatalf("%s: k*[%d] = %v, reference %v", name, r, k, kstar[r])
							}
						}
						mu, v := refPredict(model, task, x)
						muP, vP := model.Predict(task, x)
						if !sameBits(mean[j], mu) || !sameBits(variance[j], v) || !sameBits(muI, mu) || !sameBits(vI, v) || !sameBits(muP, mu) || !sameBits(vP, v) {
							t.Fatalf("%s: PredictBatchInto (%v, %v), PredictInto (%v, %v), Predict (%v, %v), reference (%v, %v)",
								name, mean[j], variance[j], muI, vI, muP, vP, mu, v)
						}
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

// PredictInto must not allocate in steady state.
func TestPredictIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	data := syntheticDataset(rng, 2, 15, 2, 0.05)
	model, err := FitLCM(data, FitOptions{NumStarts: 2, MaxIter: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws := model.NewPredictWorkspace()
	x := []float64{0.4, 0.6}
	allocs := testing.AllocsPerRun(100, func() {
		model.PredictInto(ws, 0, x)
	})
	if allocs != 0 {
		t.Fatalf("PredictInto allocates %v times per call, want 0", allocs)
	}
}

// A likelihood evaluation works entirely in engine-owned buffers: at one
// worker the bytes it allocates are a small constant — the closures of its
// parallel regions — with no term that grows with n (it used to allocate
// the n×n factor, a copy of y and a model per call).
func TestLogLikGradAllocationIndependentOfN(t *testing.T) {
	bytesPerCall := func(samples int) uint64 {
		rng := rand.New(rand.NewSource(88))
		data := syntheticDataset(rng, 4, samples, 3, 0.05)
		layout := hyperLayout{q: 2, dim: data.Dim, tasks: data.NumTasks()}
		flatX, taskOf, yn := flatten(data)
		eng := newLCMEngine(newPairCache(flatX, data.Dim), layout, taskOf, yn, 1)
		theta := randomInit(layout, rng)
		if _, _, err := eng.logLikGrad(theta); err != nil {
			t.Fatal(err)
		}
		// TotalAlloc counts the whole process, so a stray runtime allocation
		// can land inside a trial: the cleanest of a few trials is the call's
		// own cost.
		const calls = 20
		least := ^uint64(0)
		for trial := 0; trial < 5; trial++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				if _, _, err := eng.logLikGrad(theta); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if b := (after.TotalAlloc - before.TotalAlloc) / calls; b < least {
				least = b
			}
		}
		return least
	}
	small, large := bytesPerCall(10), bytesPerCall(40) // n = 40 (one Cholesky block, two chunks) and n = 160
	if small != large || small > 1024 {
		t.Fatalf("logLikGrad allocates %d B per call at n=40 and %d B at n=160, want the same small constant", small, large)
	}
}

// A point of the wrong dimensionality is a caller bug PredictInto must
// refuse: the distance kernel reads x through a raw pointer, and before it
// did, a short point silently reused the previous call's differences.
func TestPredictIntoRejectsWrongLengthPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	data := syntheticDataset(rng, 2, 8, 3, 0.05)
	model, err := FitLCM(data, FitOptions{NumStarts: 1, MaxIter: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ws := model.NewPredictWorkspace()
	for _, x := range [][]float64{nil, {0.2}, {0.2, 0.3}, {0.2, 0.3, 0.4, 0.5}} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprint(len(x))) || !strings.Contains(msg, "3") {
					t.Errorf("PredictInto with %d coordinates: panic %q, want one naming both lengths", len(x), msg)
				}
			}()
			model.PredictInto(ws, 0, x)
		}()
	}
	if mu, v := model.PredictInto(ws, 0, []float64{0.2, 0.3, 0.4}); math.IsNaN(mu) || math.IsNaN(v) {
		t.Fatalf("right-length point after the rejected ones predicts (%v, %v)", mu, v)
	}
}
