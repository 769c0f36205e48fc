package surrogate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// sgpTasks returns an sgp model's per-task sparse GPs.
func sgpTasks(m Model) []*taskSGP {
	cells := m.(incrementalPerTask).cells
	tasks := make([]*taskSGP, len(cells))
	for i, c := range cells {
		tasks[i] = c.(*taskSGP)
	}
	return tasks
}

// TestSGPInducingSubset: with Inducing below the sample count the model must
// hold exactly that many inducing points per task and still predict sanely.
func TestSGPInducingSubset(t *testing.T) {
	data := testDataset(19, 2, 30)
	f, err := New(KindSGP)
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Fit(data, FitOptions{NumStarts: 1, MaxIter: 10, Seed: 3, Inducing: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range sgpTasks(m) {
		if len(ts.z) != 8 {
			t.Fatalf("task %d: %d inducing points, want 8", i, len(ts.z))
		}
		if ts.n != 30 {
			t.Fatalf("task %d: n = %d, want 30", i, ts.n)
		}
	}
	ws := m.NewWorkspace()
	mu, v := m.PredictInto(ws, 0, []float64{0.5, 0.5})
	if math.IsNaN(mu) || math.IsNaN(v) || v < 0 {
		t.Fatalf("degenerate posterior (%v, %v)", mu, v)
	}
	// Inducing ≥ n clamps to n.
	big, err := f.Fit(data, FitOptions{NumStarts: 1, MaxIter: 5, Seed: 3, Inducing: 500})
	if err != nil {
		t.Fatal(err)
	}
	if ts := sgpTasks(big)[0]; len(ts.z) != 30 {
		t.Fatalf("Inducing=500 on 30 samples gave m = %d, want 30", len(ts.z))
	}
}

// TestSGPAppendMatchesBatchStatistics: fit on a prefix, append the rest, and
// check the DTC sufficient statistics (Q_m, r) and the posterior against an
// oracle built from all points in one pass at the same frozen inducing set
// and hyperparameters.
func TestSGPAppendMatchesBatchStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	full := testDataset(21, 2, 24)
	n0 := 16
	head := &Dataset{Dim: 2, X: make([][][]float64, 2), Y: make([][]float64, 2)}
	tail := &Dataset{Dim: 2, X: make([][][]float64, 2), Y: make([][]float64, 2)}
	for i := 0; i < 2; i++ {
		head.X[i], head.Y[i] = full.X[i][:n0], full.Y[i][:n0]
		tail.X[i], tail.Y[i] = full.X[i][n0:], full.Y[i][n0:]
	}
	f, _ := New(KindSGP)
	m, err := f.Fit(head, FitOptions{NumStarts: 1, MaxIter: 10, Seed: 7, Inducing: 10})
	if err != nil {
		t.Fatal(err)
	}
	inc, ok := m.(Incremental)
	if !ok {
		t.Fatal("sgp model does not implement Incremental")
	}
	if err := inc.Append(tail, 2); err != nil {
		t.Fatalf("Append: %v", err)
	}
	for task, ts := range sgpTasks(m) {
		if ts.n != 24 {
			t.Fatalf("task %d: n = %d, want 24", task, ts.n)
		}
		m := len(ts.z)
		inv := ts.invNoise()
		kmm := la.NewMatrix(m, m)
		kmn := la.NewMatrix(m, 24)
		yn := make([]float64, 24)
		ws, col := ts.fit.NewPredictWorkspace(), make([]float64, m)
		for i, z := range ts.z {
			ts.fit.KStarInto(ws, kmm.Row(i), 0, z)
		}
		yMean, yStd := ts.fit.OutputStats()
		for j := 0; j < 24; j++ {
			yn[j] = (full.Y[task][j] - yMean) / yStd
			ts.fit.KStarInto(ws, col, 0, full.X[task][j])
			for i, v := range col {
				kmn.Set(i, j, v)
			}
		}
		for i := 0; i < m; i++ {
			wantR := la.Dot(kmn.Row(i), yn)
			if math.Abs(ts.r[i]-wantR) > 1e-9*math.Max(1, math.Abs(wantR)) {
				t.Fatalf("task %d: r[%d] = %v, oracle %v", task, i, ts.r[i], wantR)
			}
			for j := 0; j <= i; j++ {
				want := kmm.At(i, j) + inv*la.Dot(kmn.Row(i), kmn.Row(j))
				if math.Abs(ts.qmat.At(i, j)-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("task %d: Q[%d][%d] = %v, oracle %v", task, i, j, ts.qmat.At(i, j), want)
				}
			}
		}
	}
	// Appending point-by-point must reproduce the one-call append bitwise.
	m2, err := f.Fit(head, FitOptions{NumStarts: 1, MaxIter: 10, Seed: 7, Inducing: 10})
	if err != nil {
		t.Fatal(err)
	}
	inc2 := m2.(Incremental)
	for j := range tail.X[0] {
		delta := &Dataset{Dim: 2, X: make([][][]float64, 2), Y: make([][]float64, 2)}
		for i := 0; i < 2; i++ {
			delta.X[i] = tail.X[i][j : j+1]
			delta.Y[i] = tail.Y[i][j : j+1]
		}
		if err := inc2.Append(delta, 1); err != nil {
			t.Fatalf("point append %d: %v", j, err)
		}
	}
	wsA, wsB := m.NewWorkspace(), m2.NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		x := []float64{rng.Float64(), rng.Float64()}
		task := trial % 2
		muA, vA := m.PredictInto(wsA, task, x)
		muB, vB := m2.PredictInto(wsB, task, x)
		if math.Float64bits(muA) != math.Float64bits(muB) || math.Float64bits(vA) != math.Float64bits(vB) {
			t.Fatalf("trial %d: batch vs point-by-point append diverged", trial)
		}
	}
}

// TestSGPWarmStart: an sgp model's snapshot seeds the next subset fit's
// first optimizer start with its per-task hyperparameters, exactly as the
// live cells' do, and an lcm snapshot does not decode as an sgp one.
func TestSGPWarmStart(t *testing.T) {
	data := testDataset(27, 2, 15)
	f, _ := New(KindSGP)
	prev, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := prev.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	short := FitOptions{NumStarts: 1, MaxIter: 2, Seed: 13}
	cold, err := f.Fit(data, short)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := WarmStart(KindSGP, blob)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := short
	warmOpts.WarmStart = liveWarmStart(t, prev)
	warm, err := f.Fit(data, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts.WarmStart = decoded
	warm2, err := f.Fit(data, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.6}
	muC, _ := cold.PredictInto(cold.NewWorkspace(), 0, x)
	muW, _ := warm.PredictInto(warm.NewWorkspace(), 0, x)
	muW2, _ := warm2.PredictInto(warm2.NewWorkspace(), 0, x)
	if math.Float64bits(muW) != math.Float64bits(muW2) {
		t.Fatal("sgp fit warm-started from the snapshot differs from the live model's")
	}
	if math.Float64bits(muW) == math.Float64bits(muC) {
		t.Fatal("sgp warm start had no effect")
	}
	lcmF, _ := New(KindLCM)
	other, err := lcmF.Fit(data, short)
	if err != nil {
		t.Fatal(err)
	}
	otherBlob, err := other.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WarmStart(KindSGP, otherBlob); err == nil {
		t.Fatal("an lcm snapshot decoded as an sgp warm start")
	}
}

// TestIncrementalCapability pins which backends extend in place: the GP
// family does, forests don't. A per-task backend's append is all or
// nothing: a delta that one task's slice makes invalid leaves every task's
// posterior bitwise as it was.
func TestIncrementalCapability(t *testing.T) {
	data := testDataset(29, 2, 10)
	delta := &Dataset{Dim: 2, X: [][][]float64{{{0.5, 0.5}}, {}}, Y: [][]float64{{1.5}, {}}}
	for _, kind := range []string{KindLCM, KindGPIndep, KindSGP} {
		f, _ := New(kind)
		m, err := f.Fit(data, FitOptions{NumStarts: 1, MaxIter: 8, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		inc, ok := m.(Incremental)
		if !ok {
			t.Fatalf("%s: model does not implement Incremental", kind)
		}
		ws := m.NewWorkspace()
		muBefore, _ := m.PredictInto(ws, 0, []float64{0.5, 0.5})
		// Empty delta: no-op.
		empty := &Dataset{Dim: 2, X: [][][]float64{{}, {}}, Y: [][]float64{{}, {}}}
		if err := inc.Append(empty, 1); err != nil {
			t.Fatalf("%s: empty append: %v", kind, err)
		}
		if err := inc.Append(delta, 1); err != nil {
			t.Fatalf("%s: append: %v", kind, err)
		}
		muAfter, v := m.PredictInto(ws, 0, []float64{0.5, 0.5})
		if math.IsNaN(muAfter) || math.IsNaN(v) || v < 0 {
			t.Fatalf("%s: degenerate posterior after append", kind)
		}
		if math.Float64bits(muBefore) == math.Float64bits(muAfter) {
			t.Fatalf("%s: append had no effect on the posterior", kind)
		}
		// Task-count mismatch rejected.
		bad := &Dataset{Dim: 2, X: [][][]float64{{}}, Y: [][]float64{{}}}
		if err := inc.Append(bad, 1); err == nil {
			t.Fatalf("%s: task-count mismatch accepted", kind)
		}
		if kind == KindLCM {
			continue
		}
		// Valid for task 0, a non-finite output for task 1.
		x := []float64{0.25, 0.75}
		mu0, v0 := m.PredictInto(ws, 0, x)
		mixed := &Dataset{Dim: 2, X: [][][]float64{{{0.2, 0.9}}, {{0.4, 0.1}}}, Y: [][]float64{{0.7}, {math.NaN()}}}
		if err := inc.Append(mixed, 1); err == nil {
			t.Fatalf("%s: delta with a non-finite output accepted", kind)
		}
		if mu, v := m.PredictInto(ws, 0, x); math.Float64bits(mu) != math.Float64bits(mu0) || math.Float64bits(v) != math.Float64bits(v0) {
			t.Fatalf("%s: refused append moved task 0's posterior: (%v, %v) → (%v, %v)", kind, mu0, v0, mu, v)
		}
	}
	rfF, _ := New(KindRF)
	m, err := rfF.Fit(data, FitOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(Incremental); ok {
		t.Fatal("rf model unexpectedly implements Incremental")
	}
}
