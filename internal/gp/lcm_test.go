package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

// syntheticDataset builds a small multitask dataset from smooth related
// functions: y_i(x) = sin(2πx₀) + i·0.3·cos(2πx₁) + noise.
func syntheticDataset(rng *rand.Rand, tasks, samples, dim int, noise float64) *Dataset {
	d := &Dataset{Dim: dim, X: make([][][]float64, tasks), Y: make([][]float64, tasks)}
	for i := 0; i < tasks; i++ {
		for j := 0; j < samples; j++ {
			x := make([]float64, dim)
			for k := range x {
				x[k] = rng.Float64()
			}
			y := math.Sin(2 * math.Pi * x[0])
			if dim > 1 {
				y += float64(i) * 0.3 * math.Cos(2*math.Pi*x[1])
			} else {
				y += float64(i) * 0.1
			}
			y += noise * rng.NormFloat64()
			d.X[i] = append(d.X[i], x)
			d.Y[i] = append(d.Y[i], y)
		}
	}
	return d
}

func TestDatasetValidate(t *testing.T) {
	ok := &Dataset{Dim: 1, X: [][][]float64{{{0.5}}}, Y: [][]float64{{1}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := []*Dataset{
		{Dim: 1},
		{Dim: 1, X: [][][]float64{{{0.5}}}, Y: [][]float64{}},
		{Dim: 1, X: [][][]float64{{}}, Y: [][]float64{{}}},
		{Dim: 1, X: [][][]float64{{{0.5}}}, Y: [][]float64{{1, 2}}},
		{Dim: 2, X: [][][]float64{{{0.5}}}, Y: [][]float64{{1}}},
		{Dim: 1, X: [][][]float64{{{math.NaN()}}}, Y: [][]float64{{1}}},
		{Dim: 1, X: [][][]float64{{{0.5}}}, Y: [][]float64{{math.Inf(1)}}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid dataset accepted", i)
		}
	}
}

func TestHyperLayoutIndicesDisjoint(t *testing.T) {
	h := hyperLayout{q: 2, dim: 3, tasks: 4}
	seen := map[int]bool{}
	mark := func(idx int) {
		if seen[idx] {
			t.Fatalf("index %d reused", idx)
		}
		if idx < 0 || idx >= h.total() {
			t.Fatalf("index %d out of range [0,%d)", idx, h.total())
		}
		seen[idx] = true
	}
	for q := 0; q < h.q; q++ {
		for d := 0; d < h.dim; d++ {
			mark(h.lsAt(q, d))
		}
		for i := 0; i < h.tasks; i++ {
			mark(h.aAt(q, i))
			mark(h.bAt(q, i))
		}
	}
	for i := 0; i < h.tasks; i++ {
		mark(h.dAt(i))
	}
	if len(seen) != h.total() {
		t.Fatalf("covered %d of %d indices", len(seen), h.total())
	}
}

// Property: the analytic gradient of the LCM log-likelihood matches central
// finite differences. This is the key correctness check of the modeling
// phase.
func TestLCMGradientMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := syntheticDataset(rng, 3, 6, 2, 0.05)
	layout := hyperLayout{q: 2, dim: data.Dim, tasks: data.NumTasks()}

	var flatX [][]float64
	var taskOf []int
	var flatY []float64
	for i := range data.X {
		for j := range data.X[i] {
			flatX = append(flatX, data.X[i][j])
			taskOf = append(taskOf, i)
			flatY = append(flatY, data.Y[i][j])
		}
	}
	mean, std := meanStd(flatY)
	yn := make([]float64, len(flatY))
	for i, v := range flatY {
		yn[i] = (v - mean) / std
	}

	eng := newLCMEngine(newPairCache(flatX, data.Dim), layout, taskOf, yn, 1)
	for trial := 0; trial < 5; trial++ {
		theta := randomInit(layout, rng)
		ll, g, err := eng.logLikGrad(theta)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		grad := append([]float64(nil), g...) // engine reuses its gradient buffer
		if math.IsNaN(ll) {
			t.Fatalf("trial %d: NaN log-likelihood", trial)
		}
		const h = 1e-6
		for p := 0; p < layout.total(); p++ {
			tp := append([]float64(nil), theta...)
			tp[p] += h
			lp, _, err1 := eng.logLikGrad(tp)
			tp[p] -= 2 * h
			lm, _, err2 := eng.logLikGrad(tp)
			if err1 != nil || err2 != nil {
				continue
			}
			fd := (lp - lm) / (2 * h)
			if diff := math.Abs(fd - grad[p]); diff > 1e-4*(1+math.Abs(fd)) {
				t.Errorf("trial %d param %d: analytic %v vs fd %v", trial, p, grad[p], fd)
			}
		}
	}
}

// Property: the LCM covariance matrix is positive semi-definite for random
// hyperparameters (Cholesky with jitter must succeed).
func TestLCMCovariancePSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := syntheticDataset(rng, 1+rng.Intn(3), 2+rng.Intn(5), 1+rng.Intn(3), 0)
		layout := hyperLayout{q: 1 + rng.Intn(2), dim: data.Dim, tasks: data.NumTasks()}
		if layout.q > layout.tasks {
			layout.q = layout.tasks
		}
		m := thetaToModel(randomInit(layout, rng), layout)
		var flatX [][]float64
		var taskOf []int
		for i := range data.X {
			for j := range data.X[i] {
				flatX = append(flatX, data.X[i][j])
				taskOf = append(taskOf, i)
			}
		}
		sigma := m.covariance(flatX, taskOf)
		_, _, err := la.CholeskyJitter(sigma, 1e-10, 0, 1)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFitLCMInterpolatesTrainingData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := syntheticDataset(rng, 2, 12, 1, 0) // noise-free
	model, err := FitLCM(data, FitOptions{Q: 2, NumStarts: 4, MaxIter: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Posterior mean at training points must be close to the observations,
	// and variance must be small there.
	for i := range data.X {
		for j := range data.X[i] {
			mu, v := model.Predict(i, data.X[i][j])
			if math.Abs(mu-data.Y[i][j]) > 0.2 {
				t.Errorf("task %d sample %d: predicted %v, observed %v", i, j, mu, data.Y[i][j])
			}
			if v < 0 {
				t.Errorf("negative variance %v", v)
			}
		}
	}
}

func TestFitLCMGeneralizesSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := syntheticDataset(rng, 2, 25, 1, 0)
	model, err := FitLCM(data, FitOptions{Q: 2, NumStarts: 4, MaxIter: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Check prediction error at held-out points.
	maxErr := 0.0
	for trial := 0; trial < 50; trial++ {
		x := []float64{rng.Float64()}
		for i := 0; i < 2; i++ {
			truth := math.Sin(2*math.Pi*x[0]) + float64(i)*0.1
			mu, _ := model.Predict(i, x)
			if e := math.Abs(mu - truth); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 0.35 {
		t.Fatalf("held-out error too large: %v", maxErr)
	}
}

func TestPredictVarianceShrinksAtData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := syntheticDataset(rng, 1, 10, 1, 0)
	model, err := FitLCM(data, FitOptions{NumStarts: 3, MaxIter: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, vAtData := model.Predict(0, data.X[0][0])
	// A point far from all samples (outside [0,1] cluster) has larger
	// variance.
	_, vFar := model.Predict(0, []float64{5.0})
	if vAtData >= vFar {
		t.Fatalf("variance at data %v not below variance far away %v", vAtData, vFar)
	}
}

func TestFitLCMMultitaskSharesInformation(t *testing.T) {
	// Task 0 has dense samples of sin; task 1 has only 3 samples of the SAME
	// function. The multitask model should predict task 1 well anyway by
	// borrowing strength — the core claim of MLA.
	rng := rand.New(rand.NewSource(8))
	f := func(x float64) float64 { return math.Sin(2 * math.Pi * x) }
	data := &Dataset{Dim: 1, X: make([][][]float64, 2), Y: make([][]float64, 2)}
	for j := 0; j < 20; j++ {
		x := rng.Float64()
		data.X[0] = append(data.X[0], []float64{x})
		data.Y[0] = append(data.Y[0], f(x))
	}
	for j := 0; j < 3; j++ {
		x := rng.Float64()
		data.X[1] = append(data.X[1], []float64{x})
		data.Y[1] = append(data.Y[1], f(x))
	}
	multi, err := FitLCM(data, FitOptions{Q: 2, NumStarts: 4, MaxIter: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	single, err := FitLCM(&Dataset{Dim: 1, X: data.X[1:], Y: data.Y[1:]},
		FitOptions{Q: 1, NumStarts: 4, MaxIter: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var errMulti, errSingle float64
	for trial := 0; trial < 100; trial++ {
		x := []float64{rng.Float64()}
		truth := f(x[0])
		mm, _ := multi.Predict(1, x)
		ms, _ := single.Predict(0, x)
		errMulti += (mm - truth) * (mm - truth)
		errSingle += (ms - truth) * (ms - truth)
	}
	if errMulti >= errSingle {
		t.Fatalf("multitask MSE %v not better than single-task %v", errMulti, errSingle)
	}
}

func TestFitLCMParallelWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := syntheticDataset(rng, 2, 8, 2, 0.01)
	m1, err := FitLCM(data, FitOptions{NumStarts: 4, MaxIter: 60, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m4, err := FitLCM(data, FitOptions{NumStarts: 4, MaxIter: 60, Seed: 11, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Same seeds per start → identical best log-likelihood regardless of
	// worker count.
	if math.Abs(m1.LogLik-m4.LogLik) > 1e-9*(1+math.Abs(m1.LogLik)) {
		t.Fatalf("worker count changed result: %v vs %v", m1.LogLik, m4.LogLik)
	}
}

func TestFitLCMRejectsBadData(t *testing.T) {
	if _, err := FitLCM(&Dataset{Dim: 1}, FitOptions{}); err == nil {
		t.Fatalf("empty dataset accepted")
	}
	bad := &Dataset{Dim: 1, X: [][][]float64{{{0.1}}}, Y: [][]float64{{math.NaN()}}}
	if _, err := FitLCM(bad, FitOptions{}); err == nil {
		t.Fatalf("NaN output accepted")
	}
}

func TestMeanStdDegenerate(t *testing.T) {
	m, s := meanStd([]float64{3, 3, 3})
	if m != 3 || s != 1 {
		t.Fatalf("constant data: mean %v std %v, want 3, 1 (floor)", m, s)
	}
}

func TestRBFBasics(t *testing.T) {
	x := []float64{0.3, 0.7}
	if v := rbf(x, x, halfInvSq([]float64{1, 1})); v != 1 {
		t.Fatalf("k(x,x) = %v, want 1", v)
	}
	// Monotone decay with distance.
	k1 := rbf([]float64{0}, []float64{0.1}, halfInvSq([]float64{0.5}))
	k2 := rbf([]float64{0}, []float64{0.5}, halfInvSq([]float64{0.5}))
	if !(k1 > k2 && k2 > 0) {
		t.Fatalf("kernel not decaying: %v, %v", k1, k2)
	}
}
