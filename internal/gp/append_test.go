package gp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// appendTestData builds a small smooth multitask dataset.
func appendTestData(rng *rand.Rand, tasks, samples, dim int) *Dataset {
	d := &Dataset{Dim: dim, X: make([][][]float64, tasks), Y: make([][]float64, tasks)}
	for i := 0; i < tasks; i++ {
		for j := 0; j < samples; j++ {
			x := make([]float64, dim)
			s := 0.0
			for k := range x {
				x[k] = rng.Float64()
				s += math.Sin(3*x[k] + float64(i))
			}
			d.X[i] = append(d.X[i], x)
			d.Y[i] = append(d.Y[i], s+0.01*rng.NormFloat64())
		}
	}
	return d
}

// TestAppendObservationsMatchesDirectPosterior: extending a fitted model must
// yield the exact GP posterior at the frozen hyperparameters on the enlarged
// training set. The oracle builds that posterior directly (dense covariance,
// recorded jitter, dense solves).
func TestAppendObservationsMatchesDirectPosterior(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := appendTestData(rng, 2, 12, 3)
	m, err := FitLCM(data, FitOptions{Q: 2, NumStarts: 2, MaxIter: 20, Seed: 9})
	if err != nil {
		t.Fatalf("FitLCM: %v", err)
	}
	// New points, alternating tasks.
	const k = 5
	xs := make([][]float64, k)
	tasksOf := make([]int, k)
	ys := make([]float64, k)
	for j := 0; j < k; j++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xs[j] = x
		tasksOf[j] = j % 2
		ys[j] = math.Sin(3*x[0]) + math.Sin(3*x[1]) + math.Sin(3*x[2])
	}
	if err := m.AppendObservations(xs, tasksOf, ys, 2); err != nil {
		t.Fatalf("AppendObservations: %v", err)
	}
	if len(m.flatX) != 24+k {
		t.Fatalf("model holds %d samples, want %d", len(m.flatX), 24+k)
	}

	// Oracle: dense posterior at the same hyperparameters on all 24+k points.
	flatX := append([][]float64(nil), m.flatX...)
	taskOf := append([]int(nil), m.taskOf...)
	sigma := m.covariance(flatX, taskOf)
	n := len(flatX)
	for i := 0; i < n; i++ {
		sigma.Data[i*n+i] += m.Jitter
	}
	l, err := la.ParallelCholesky(sigma, sigma.Rows, 1)
	if err != nil {
		t.Fatalf("oracle Cholesky: %v", err)
	}
	lp := la.PackChol(l)
	alpha := lp.SolveVec(m.yNorm)

	ws := m.NewPredictWorkspace()
	for trial := 0; trial < 25; trial++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		task := trial % 2
		gotMu, gotVar := m.PredictInto(ws, task, x)

		kstar := refKstar(m, task, x)
		mu := la.Dot(kstar, alpha)
		prior := m.D[task]
		for q := 0; q < m.Q; q++ {
			prior += m.A[q][task]*m.A[q][task] + m.B[q][task]
		}
		v := la.CopyVec(kstar)
		lp.ForwardSubst(v)
		variance := prior - la.Dot(v, v)
		if variance < 0 {
			variance = 0
		}
		wantMu := mu*m.yStd + m.yMean
		wantVar := variance * m.yStd * m.yStd

		if math.Abs(gotMu-wantMu) > 1e-8*math.Max(1, math.Abs(wantMu)) {
			t.Fatalf("trial %d: mean %v, oracle %v", trial, gotMu, wantMu)
		}
		if math.Abs(gotVar-wantVar) > 1e-8*math.Max(1, wantVar) {
			t.Fatalf("trial %d: variance %v, oracle %v", trial, gotVar, wantVar)
		}
	}
}

// TestAppendedModelReloadsBitwise: the append path builds its panel and
// corner through KStarInto, the form assembleSigma's refactorization agrees
// with bit for bit, so while the whole model fits in one Cholesky block —
// where AppendRows continues the very recurrence the refactorization runs —
// an appended model and its training state factored afresh at the same
// hyperparameters predict the same bits.
func TestAppendedModelReloadsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := appendTestData(rng, 2, 12, 3)
	m, err := FitLCM(data, FitOptions{Q: 2, NumStarts: 2, MaxIter: 20, Seed: 9})
	if err != nil {
		t.Fatalf("FitLCM: %v", err)
	}
	const k = 5
	xs := make([][]float64, k)
	tasksOf := make([]int, k)
	ys := make([]float64, k)
	for j := 0; j < k; j++ {
		xs[j] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		tasksOf[j] = j % 2
		ys[j] = math.Sin(3*xs[j][0]) + math.Sin(3*xs[j][1]) + math.Sin(3*xs[j][2])
	}
	if err := m.AppendObservations(xs, tasksOf, ys, 2); err != nil {
		t.Fatalf("AppendObservations: %v", err)
	}
	if n := len(m.flatX); n > cholBlock {
		t.Fatalf("model holds %d samples, the test needs at most one %d-row block", n, cholBlock)
	}
	back := refactorOnFreshEngine(t, m)
	ws, wsBack := m.NewPredictWorkspace(), back.NewPredictWorkspace()
	const predictions = 300
	differ := 0
	for p := 0; p < predictions; p++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if p%10 == 0 {
			copy(x, m.flatX[rng.Intn(len(m.flatX))])
		}
		task := p % 2
		mu, v := m.PredictInto(ws, task, x)
		muBack, vBack := back.PredictInto(wsBack, task, x)
		if math.Float64bits(mu) != math.Float64bits(muBack) || math.Float64bits(v) != math.Float64bits(vBack) {
			differ++
		}
	}
	if differ > 0 {
		t.Fatalf("%d of %d predictions of the refactored model differ from the appended one's", differ, predictions)
	}
}

// TestAppendObservationsWorkerInvariant: the extension must be bitwise
// identical for any workers value, and one k-point append must be bitwise
// identical to k single-point appends.
func TestAppendObservationsWorkerInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := appendTestData(rng, 3, 10, 2)
	fit := func() *LCM {
		m, err := FitLCM(data, FitOptions{Q: 2, NumStarts: 1, MaxIter: 10, Seed: 4})
		if err != nil {
			t.Fatalf("FitLCM: %v", err)
		}
		return m
	}
	const k = 4
	xs := make([][]float64, k)
	tasksOf := make([]int, k)
	ys := make([]float64, k)
	for j := 0; j < k; j++ {
		xs[j] = []float64{rng.Float64(), rng.Float64()}
		tasksOf[j] = j % 3
		ys[j] = rng.NormFloat64()
	}
	block1, block8, oneAtATime := fit(), fit(), fit()
	if err := block1.AppendObservations(xs, tasksOf, ys, 1); err != nil {
		t.Fatalf("append workers=1: %v", err)
	}
	if err := block8.AppendObservations(xs, tasksOf, ys, 8); err != nil {
		t.Fatalf("append workers=8: %v", err)
	}
	for j := 0; j < k; j++ {
		if err := oneAtATime.AppendObservations(xs[j:j+1], tasksOf[j:j+1], ys[j:j+1], 3); err != nil {
			t.Fatalf("append point %d: %v", j, err)
		}
	}
	wsA, wsB, wsC := block1.NewPredictWorkspace(), block8.NewPredictWorkspace(), oneAtATime.NewPredictWorkspace()
	for trial := 0; trial < 20; trial++ {
		x := []float64{rng.Float64(), rng.Float64()}
		task := trial % 3
		muA, varA := block1.PredictInto(wsA, task, x)
		muB, varB := block8.PredictInto(wsB, task, x)
		muC, varC := oneAtATime.PredictInto(wsC, task, x)
		if math.Float64bits(muA) != math.Float64bits(muB) || math.Float64bits(varA) != math.Float64bits(varB) {
			t.Fatalf("trial %d: workers=1 vs workers=8 predictions differ", trial)
		}
		if math.Float64bits(muA) != math.Float64bits(muC) || math.Float64bits(varA) != math.Float64bits(varC) {
			t.Fatalf("trial %d: blocked vs one-at-a-time predictions differ", trial)
		}
	}
}

// TestAppendObservationsRejectsBadInput covers the validation paths and that
// a failed append leaves the model untouched.
func TestAppendObservationsRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := appendTestData(rng, 2, 8, 2)
	m, err := FitLCM(data, FitOptions{Q: 1, NumStarts: 1, MaxIter: 10, Seed: 2})
	if err != nil {
		t.Fatalf("FitLCM: %v", err)
	}
	n0 := len(m.flatX)
	cases := []struct {
		xs    [][]float64
		tasks []int
		ys    []float64
	}{
		{[][]float64{{0.1}}, []int{0}, []float64{1}},                     // wrong dim
		{[][]float64{{0.1, 0.2}}, []int{5}, []float64{1}},                // task out of range
		{[][]float64{{0.1, 0.2}}, []int{0}, []float64{math.NaN()}},       // non-finite y
		{[][]float64{{math.Inf(1), 0.2}}, []int{0}, []float64{1}},        // non-finite x
		{[][]float64{{0.1, 0.2}, {0.3, 0.4}}, []int{0}, []float64{1, 2}}, // length mismatch
	}
	for i, c := range cases {
		if err := m.AppendObservations(c.xs, c.tasks, c.ys, 1); err == nil {
			t.Fatalf("case %d: append accepted bad input", i)
		}
		if len(m.flatX) != n0 {
			t.Fatalf("case %d: failed append changed the model", i)
		}
	}
	// A corner that does not factor (a NaN noise term on its diagonal) fails
	// in AppendRows, after the coordinates grew: they are cut back and the
	// model predicts the same bits as before.
	ws := m.NewPredictWorkspace()
	x := []float64{0.4, 0.6}
	mu, v := m.PredictInto(ws, 1, x)
	d0 := m.D[0]
	m.D[0] = math.NaN()
	if err := m.AppendObservations([][]float64{{0.5, 0.5}}, []int{0}, []float64{1}, 1); !errors.Is(err, la.ErrNotPositiveDefinite) {
		t.Fatalf("append onto a NaN noise term: %v, want ErrNotPositiveDefinite", err)
	}
	m.D[0] = d0
	if len(m.flatX) != n0 || len(m.taskOf) != n0 || len(m.xT) != n0*m.Dim {
		t.Fatalf("failed append left %d samples, %d labels, %d coordinates; want %d", len(m.flatX), len(m.taskOf), len(m.xT), n0)
	}
	if mu2, v2 := m.PredictInto(ws, 1, x); math.Float64bits(mu2) != math.Float64bits(mu) || math.Float64bits(v2) != math.Float64bits(v) {
		t.Fatalf("failed append moved a prediction: (%v, %v) then (%v, %v)", mu, v, mu2, v2)
	}
	var bare LCM
	if err := bare.AppendObservations([][]float64{{0, 0}}, []int{0}, []float64{1}, 1); err == nil {
		t.Fatalf("append on unfitted model succeeded")
	}
}
