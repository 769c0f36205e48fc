// Surrogate-diagnostics example: use the multitask LCM directly as a
// regression model, inspect its fit with leave-one-out cross-validation, and
// see the multitask transfer effect — a sparsely sampled task predicted well
// because a related task is densely sampled (the mechanism behind the
// paper's MLA).
package main

import (
	"fmt"
	"log"
	"math"

	"repro/gptune"
	"repro/internal/rng"
)

func main() {
	rng := rng.New(7, rng.Example)
	truth := func(task int, x float64) float64 {
		return math.Sin(2*math.Pi*x) + 0.3*float64(task)*math.Cos(2*math.Pi*x)
	}

	// Task 0: 25 samples. Task 1: only 4 samples of a closely related
	// function.
	data := &gptune.Dataset{Dim: 1, X: make([][][]float64, 2), Y: make([][]float64, 2)}
	for j := 0; j < 25; j++ {
		x := rng.Float64()
		data.X[0] = append(data.X[0], []float64{x})
		data.Y[0] = append(data.Y[0], truth(0, x))
	}
	for j := 0; j < 4; j++ {
		x := rng.Float64()
		data.X[1] = append(data.X[1], []float64{x})
		data.Y[1] = append(data.Y[1], truth(1, x))
	}

	model, err := gptune.FitSurrogate(data, gptune.SurrogateOptions{
		Q: 2, NumStarts: 4, MaxIter: 150, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted LCM: Q=%d latent functions, log-likelihood %.2f, %d likelihood evaluations over all starts\n\n", model.Q, model.LogLik, model.FitEvals)

	// Out-of-sample error on the sparsely sampled task.
	var mse float64
	const probes = 200
	for i := 0; i < probes; i++ {
		x := float64(i) / probes
		mu, _ := model.Predict(1, []float64{x})
		d := mu - truth(1, x)
		mse += d * d
	}
	multiRMSE := math.Sqrt(mse / probes)

	// Baseline: fit task 1 alone on the same 4 samples.
	solo := &gptune.Dataset{Dim: 1, X: data.X[1:], Y: data.Y[1:]}
	soloModel, err := gptune.FitSurrogate(solo, gptune.SurrogateOptions{
		Q: 1, NumStarts: 4, MaxIter: 150, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	mse = 0
	for i := 0; i < probes; i++ {
		x := float64(i) / probes
		mu, _ := soloModel.Predict(0, []float64{x})
		d := mu - truth(1, x)
		mse += d * d
	}
	soloRMSE := math.Sqrt(mse / probes)
	fmt.Printf("task 1 (4 samples): out-of-sample RMSE %.4f multitask vs %.4f single-task\n",
		multiRMSE, soloRMSE)
	fmt.Println("(the multitask model borrows strength from task 0's 25 samples)")

	// Leave-one-out diagnostics.
	loo, err := model.LeaveOneOut()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nleave-one-out: RMSE %.4f, log pseudo-likelihood %.2f\n", loo.RMSE, loo.LogPseudoLikelihood)
	worst := 0.0
	for _, r := range loo.StdResiduals {
		if math.Abs(r) > worst {
			worst = math.Abs(r)
		}
	}
	fmt.Printf("largest standardized residual: %.2f (|r| >> 3 would flag miscalibration)\n", worst)
}
