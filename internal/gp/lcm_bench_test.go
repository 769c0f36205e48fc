package gp

import (
	"fmt"
	"math/rand"
	"testing"
)

// Realistic modeling-phase sizes per the paper's Table 3 regime: δ=4 tasks,
// ~75 samples each (n≈300), β=4 tuning dimensions, Q=3 latent functions.
const (
	benchTasks   = 4
	benchSamples = 75
	benchDim     = 4
	benchQ       = 3
)

func benchGradSetup(b *testing.B) (hyperLayout, [][]float64, []int, []float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	data := syntheticDataset(rng, benchTasks, benchSamples, benchDim, 0.05)
	layout := hyperLayout{q: benchQ, dim: data.Dim, tasks: data.NumTasks()}
	flatX, taskOf, yn := flatten(data)
	theta := randomInit(layout, rng)
	return layout, flatX, taskOf, yn, theta
}

// BenchmarkLCMLogLikGradReference is the serial baseline: pairwise distances
// recomputed from raw coordinates each call and a full-matrix per-pair
// gradient scatter, around the one-worker la factorization and inverse the
// engine uses too.
func BenchmarkLCMLogLikGradReference(b *testing.B) {
	layout, flatX, taskOf, yn, theta := benchGradSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := lcmLogLikGradReference(theta, layout, flatX, taskOf, yn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLCMLogLikGrad is the cached engine at one worker (pure
// algorithmic speedup over the reference) at n = 300, and at the
// tune_cold-sized n = 36 and n = 72 (δ 3, β 5, Q 3) whose evaluations
// a raced fit's last start runs back to back. This is the one
// micro-benchmark the ledger does not cover — the reference exists only in
// tests — and DESIGN.md cites its n = 300 ratio; fits, predictions and
// appends are ledger rows (gp.fit_lcm_ms.*, gp.predict_into_us.n920,
// gp.append_obs_ms.n920_k2).
func BenchmarkLCMLogLikGrad(b *testing.B) {
	b.Run("n300", func(b *testing.B) {
		layout, flatX, taskOf, yn, theta := benchGradSetup(b)
		benchLogLikGrad(b, layout, flatX, taskOf, yn, theta)
	})
	for _, samples := range []int{12, 24} {
		b.Run(fmt.Sprintf("n%d", 3*samples), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			data := syntheticDataset(rng, 3, samples, 5, 0.05)
			layout := hyperLayout{q: 3, dim: data.Dim, tasks: data.NumTasks()}
			flatX, taskOf, yn := flatten(data)
			benchLogLikGrad(b, layout, flatX, taskOf, yn, randomInit(layout, rng))
		})
	}
}

func benchLogLikGrad(b *testing.B, layout hyperLayout, flatX [][]float64, taskOf []int, yn, theta []float64) {
	eng := newLCMEngine(newPairCache(flatX, layout.dim), layout, taskOf, yn, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.logLikGrad(theta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitLCM is one fit at tune_warm's shape — δ 2, β 8, n 510, 2
// starts × 15 iterations, Workers 2 — and one at tune_cold's — δ 3, β 5,
// n 72, 4 starts, the default cap, Workers 2 — each reporting the bytes it
// allocates. At n 510 that is the coordinates, two engines of
// Q·n(n+1)/2 + n(n+1) doubles plus their row scratch, and the model, whose
// packed factor is engine 0's buffer: about 9.4 MB
// (TestFitLCMAllocatesItsLiveSet holds the bound). At n 72 an evaluation
// is a few hundred microseconds, so this one times what the row-by-row
// squared differences cost and the value-only line-search trials save.
func BenchmarkFitLCM(b *testing.B) {
	for _, c := range []struct {
		name                  string
		tasks, samples, dim   int
		starts, maxIter, seed int
	}{
		{"n510", 2, 255, 8, 2, 15, 5},
		{"n72", 3, 24, 5, 4, 0, 7},
	} {
		b.Run(c.name, func(b *testing.B) {
			data := syntheticDataset(rand.New(rand.NewSource(int64(c.seed))), c.tasks, c.samples, c.dim, 0.05)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FitLCM(data, FitOptions{NumStarts: c.starts, MaxIter: c.maxIter, Workers: 2, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredictBatchInto scores one group of four points — a PSO window's
// unit of work — through PredictBatchInto at tune_warm's shape, δ 2, β 8,
// n 510: four k* vectors, one four-right-hand-side forward solve against the
// packed factor, and the Dots. The model's short fit only sets the
// hyperparameters; a prediction costs the same whatever they are. It must
// not allocate (TestPredictIntoZeroAllocs).
func BenchmarkPredictBatchInto(b *testing.B) {
	b.Run("n510_x4", func(b *testing.B) {
		data := syntheticDataset(rand.New(rand.NewSource(5)), 2, 255, 8, 0.05)
		m, err := FitLCM(data, FitOptions{NumStarts: 1, MaxIter: 5, Workers: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		xs := make([][]float64, 4)
		for j := range xs {
			xs[j] = make([]float64, data.Dim)
			for d := range xs[j] {
				xs[j][d] = rng.Float64()
			}
		}
		ws := m.NewPredictWorkspace()
		mean, variance := make([]float64, len(xs)), make([]float64, len(xs))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PredictBatchInto(ws, 0, xs, mean, variance)
		}
	})
}
