package gp

import (
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
// algorithmic speedup over the reference). This pair is the one
// micro-benchmark the ledger does not cover — the reference exists only in
// tests — and DESIGN.md cites its ratio; fits, predictions and appends are
// ledger rows (gp.fit_lcm_ms.*, gp.predict_into_us.n920,
// gp.append_obs_ms.n920_k2).
func BenchmarkLCMLogLikGrad(b *testing.B) {
	layout, flatX, taskOf, yn, theta := benchGradSetup(b)
	eng := newLCMEngine(newPairCache(flatX, layout.dim), layout, taskOf, yn, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.logLikGrad(theta); err != nil {
			b.Fatal(err)
		}
	}
}
