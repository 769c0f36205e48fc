package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// number of LCM latent functions Q, the acquisition function, the
// EI-maximization strategy (PSO vs random candidate scoring), and the
// parallel Cholesky block size. Quality metrics (best objective found,
// model log-likelihood) are attached via b.ReportMetric so `go test -bench`
// shows the tradeoff, not just the wall time.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/acq"
	"repro/internal/apps/analytical"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/la"
	"repro/internal/opt"
	"repro/internal/space"
)

// ablationProblem: 2-D multimodal objective with known optimum at
// (0.3, 0.6), value 0.
func ablationProblem() *core.Problem {
	return &core.Problem{
		Name:    "ablation",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x0", 0, 1), space.NewReal("x1", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			d0, d1 := x[0]-0.3, x[1]-0.6
			ripple := 0.1 * math.Sin(9*x[0]) * math.Cos(7*x[1])
			return []float64{10*(d0*d0+d1*d1) + ripple + 0.1 + task[0]}, nil
		},
	}
}

func benchAblationQ(b *testing.B, q int) {
	rng := rand.New(rand.NewSource(1))
	data := &gp.Dataset{Dim: 1}
	for i := 0; i < 4; i++ {
		var xs [][]float64
		var ys []float64
		for j := 0; j < 15; j++ {
			x := rng.Float64()
			xs = append(xs, []float64{x})
			ys = append(ys, analytical.Objective(float64(i)*0.5, x))
		}
		data.X = append(data.X, xs)
		data.Y = append(data.Y, ys)
	}
	var ll float64
	for i := 0; i < b.N; i++ {
		model, err := gp.FitLCM(data, gp.FitOptions{Q: q, NumStarts: 2, MaxIter: 40, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ll = model.LogLik
	}
	b.ReportMetric(ll, "loglik")
}

func BenchmarkAblationLCMQ1(b *testing.B) { benchAblationQ(b, 1) }
func BenchmarkAblationLCMQ2(b *testing.B) { benchAblationQ(b, 2) }
func BenchmarkAblationLCMQ4(b *testing.B) { benchAblationQ(b, 4) }

func benchAblationAcquisition(b *testing.B, name string) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(ablationProblem(), [][]float64{{0}}, core.Options{
			EpsTot: 16, Seed: int64(i) + 1, Acquisition: name,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, y := res.Tasks[0].Best()
		best = y[0]
	}
	b.ReportMetric(best, "best")
}

func BenchmarkAblationAcqEI(b *testing.B)  { benchAblationAcquisition(b, "ei") }
func BenchmarkAblationAcqLCB(b *testing.B) { benchAblationAcquisition(b, "lcb") }
func BenchmarkAblationAcqPI(b *testing.B)  { benchAblationAcquisition(b, "pi") }

// EI-maximization ablation: PSO (the paper's choice) vs scoring uniform
// random candidates, on a fitted surrogate.
func benchAblationEISearch(b *testing.B, usePSO bool) {
	rng := rand.New(rand.NewSource(2))
	data := &gp.Dataset{Dim: 2}
	var xs [][]float64
	var ys []float64
	for j := 0; j < 25; j++ {
		x := []float64{rng.Float64(), rng.Float64()}
		d0, d1 := x[0]-0.3, x[1]-0.6
		xs = append(xs, x)
		ys = append(ys, 10*(d0*d0+d1*d1))
	}
	data.X = append(data.X, xs)
	data.Y = append(data.Y, ys)
	model, err := gp.FitLCM(data, gp.FitOptions{NumStarts: 2, MaxIter: 40, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	yBest := ys[0]
	for _, y := range ys {
		if y < yBest {
			yBest = y
		}
	}
	neg := func(u []float64) float64 {
		mu, v := model.Predict(0, u)
		return -acq.ExpectedImprovement(mu, v, yBest)
	}
	var achieved float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prng := rand.New(rand.NewSource(int64(i)))
		if usePSO {
			res := opt.PSO(neg, 2, opt.PSOParams{Particles: 20, MaxIter: 30}, prng)
			achieved = -res.F
		} else {
			best := math.Inf(1)
			for c := 0; c < 620; c++ { // eval-count-matched
				best = math.Min(best, neg([]float64{prng.Float64(), prng.Float64()}))
			}
			achieved = -best
		}
	}
	b.ReportMetric(achieved, "EI")
}

func BenchmarkAblationEISearchPSO(b *testing.B)    { benchAblationEISearch(b, true) }
func BenchmarkAblationEISearchRandom(b *testing.B) { benchAblationEISearch(b, false) }

func randomSPD(n int, seed int64) *la.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := la.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	a := la.MatMulTransB(m, m)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += float64(n)
	}
	return a
}

func benchAblationCholBlock(b *testing.B, block int) {
	a := randomSPD(384, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.ParallelCholesky(a, block, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCholBlock16(b *testing.B)  { benchAblationCholBlock(b, 16) }
func BenchmarkAblationCholBlock64(b *testing.B)  { benchAblationCholBlock(b, 64) }
func BenchmarkAblationCholBlock128(b *testing.B) { benchAblationCholBlock(b, 128) }

// Initial-design ablation: the share of the budget spent on the LHS initial
// design (Options.InitFraction) before the model takes over, measured by the
// best objective of the whole run at a fixed ε_tot.
func benchAblationInitDesign(b *testing.B, frac float64) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(ablationProblem(), [][]float64{{0}}, core.Options{
			EpsTot: 16, Seed: int64(i) + 1, InitFraction: frac,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, y := res.Tasks[0].Best()
		best = y[0]
	}
	b.ReportMetric(best, "best")
}

func BenchmarkAblationInitFraction25(b *testing.B) { benchAblationInitDesign(b, 0.25) }
func BenchmarkAblationInitFraction50(b *testing.B) { benchAblationInitDesign(b, 0.50) }
func BenchmarkAblationInitFraction75(b *testing.B) { benchAblationInitDesign(b, 0.75) }
