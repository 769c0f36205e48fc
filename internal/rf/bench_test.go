package rf

import (
	"math/rand"
	"testing"

	"repro/internal/apps/analytical/eq11"
)

// BenchmarkFit is one forest fit at the shape the serve_closed workload's
// rf studies fit: one task's 36 initial samples of the one-dimensional
// analytical problem (ε_tot 40 at InitFraction 0.9), the default 50 trees,
// one worker, a new seed per fit.
func BenchmarkFit(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	X, y := make([][]float64, 36), make([]float64, 36)
	for i := range X {
		X[i] = []float64{r.Float64()}
		y[i] = eq11.Objective(0.75, X[i][0])
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, Params{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
