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

// The cached/parallel engine must agree with the naive reference evaluation.
// Two sizes: n < cholBlock exercises the serial Cholesky shortcut, n > 64
// the blocked parallel path.
func TestEngineMatchesReference(t *testing.T) {
	for _, cfg := range []struct {
		name           string
		tasks, samples int
		tol            float64
	}{
		{"small", 3, 8, 1e-9},
		{"blocked", 3, 30, 1e-7},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			data := syntheticDataset(rng, cfg.tasks, cfg.samples, 3, 0.05)
			layout := hyperLayout{q: 2, dim: data.Dim, tasks: data.NumTasks()}
			flatX, taskOf, yn := flatten(data)
			eng := newLCMEngine(newPairCache(flatX, data.Dim), layout, taskOf, yn, 2)
			for trial := 0; trial < 4; trial++ {
				theta := randomInit(layout, rng)
				llRef, gradRef, errRef := lcmLogLikGradReference(theta, layout, flatX, taskOf, yn)
				ll, grad, err := eng.logLikGrad(theta)
				if (err == nil) != (errRef == nil) {
					t.Fatalf("trial %d: error mismatch: engine %v, reference %v", trial, err, errRef)
				}
				if err != nil {
					continue
				}
				if d := math.Abs(ll - llRef); d > cfg.tol*(1+math.Abs(llRef)) {
					t.Errorf("trial %d: ll %v vs reference %v", trial, ll, llRef)
				}
				for p := range grad {
					if d := math.Abs(grad[p] - gradRef[p]); d > cfg.tol*(1+math.Abs(gradRef[p])) {
						t.Errorf("trial %d param %d: grad %v vs reference %v", trial, p, grad[p], gradRef[p])
					}
				}
			}
		})
	}
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

// PredictInto must match the naive evaluation of Eqs. (5–6) (refPredict, the
// body Predict had before it became a wrapper) to 1e-12 on random fitted
// models, and the Predict wrapper must be PredictInto exactly.
func TestPredictWorkspaceMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 3; trial++ {
		data := syntheticDataset(rng, 2+trial, 10, 1+trial, 0.05)
		model, err := FitLCM(data, FitOptions{NumStarts: 2, MaxIter: 30, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		ws := model.NewPredictWorkspace()
		var xs [][]float64
		for k := 0; k < 25; k++ {
			x := make([]float64, data.Dim)
			for d := range x {
				x[d] = rng.Float64()*2 - 0.5
			}
			xs = append(xs, x)
		}
		for task := 0; task < data.NumTasks(); task++ {
			for _, x := range xs {
				mu, v := refPredict(model, task, x)
				muWS, vWS := model.PredictInto(ws, task, x)
				if math.Abs(mu-muWS) > 1e-12*(1+math.Abs(mu)) || math.Abs(v-vWS) > 1e-12*(1+v) {
					t.Fatalf("trial %d task %d: PredictInto (%v,%v) vs refPredict (%v,%v)", trial, task, muWS, vWS, mu, v)
				}
				if muP, vP := model.Predict(task, x); muP != muWS || vP != vWS {
					t.Fatalf("trial %d task %d: Predict (%v,%v) is not PredictInto (%v,%v)", trial, task, muP, vP, muWS, vWS)
				}
			}
		}
	}
}

// PredictBatchInto returns, per point, the bits PredictInto returns for that
// point alone, at every batch length from one to nine (whole groups of four
// and every remainder), for each task, before and after an append grew the
// model under both workspaces.
func TestPredictBatchIntoIsPredictIntoPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	model, err := FitLCM(appendTestData(rng, 2, 33, 3), FitOptions{Q: 2, NumStarts: 2, MaxIter: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ws, wsBatch := model.NewPredictWorkspace(), model.NewPredictWorkspace()
	check := func(stage string) {
		for size := 1; size <= 9; size++ {
			xs := make([][]float64, size)
			for j := range xs {
				xs[j] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			}
			mean, variance := make([]float64, size), make([]float64, size)
			for task := 0; task < model.NumTasks; task++ {
				model.PredictBatchInto(wsBatch, task, xs, mean, variance)
				for j, x := range xs {
					mu, v := model.PredictInto(ws, task, x)
					if math.Float64bits(mean[j]) != math.Float64bits(mu) || math.Float64bits(variance[j]) != math.Float64bits(v) {
						t.Fatalf("%s: batch of %d, task %d, point %d: PredictBatchInto (%v, %v), PredictInto (%v, %v)",
							stage, size, task, j, mean[j], variance[j], mu, v)
					}
				}
			}
		}
	}
	check("fitted")
	xs := [][]float64{{0.1, 0.2, 0.3}, {0.7, 0.5, 0.9}, {0.4, 0.4, 0.1}}
	if err := model.AppendObservations(xs, []int{0, 1, 1}, []float64{0.5, -0.2, 1.1}, 2); err != nil {
		t.Fatal(err)
	}
	check("appended")
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
