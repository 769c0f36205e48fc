package surrogate

import (
	"math/rand"
	"testing"
)

// BenchmarkPredictBatchInto is one four-point PredictBatchInto group per
// backend, the call the search scores its candidates through: lcm over two
// tasks of 200 samples each (n = 400), sgp's task 0 at the default 128
// inducing points over the same 200, and rf's task-0 forest. The short fits
// only set the state; a prediction costs the same whatever it is. None may
// allocate.
func BenchmarkPredictBatchInto(b *testing.B) {
	data := testDataset(41, 2, 200)
	rng := rand.New(rand.NewSource(42))
	xs := make([][]float64, 4)
	for j := range xs {
		xs[j] = []float64{rng.Float64(), rng.Float64()}
	}
	for _, kind := range []string{KindLCM, KindSGP, KindRF} {
		b.Run(kind, func(b *testing.B) {
			f, err := New(kind)
			if err != nil {
				b.Fatal(err)
			}
			m, err := f.Fit(data, FitOptions{NumStarts: 1, MaxIter: 5, Workers: 2, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			ws := m.NewWorkspace()
			mean, variance := make([]float64, len(xs)), make([]float64, len(xs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictBatchInto(ws, 0, xs, mean, variance)
			}
		})
	}
}
