package surrogate

import (
	"math"
	"math/rand"
	"testing"
)

// testDataset builds a small multitask dataset with correlated tasks.
func testDataset(seed int64, tasks, perTask int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Dim: 2, X: make([][][]float64, tasks), Y: make([][]float64, tasks)}
	for i := 0; i < tasks; i++ {
		for j := 0; j < perTask; j++ {
			x := []float64{rng.Float64(), rng.Float64()}
			y := math.Sin(4*x[0]) + 0.5*float64(i)*x[1] + 0.05*rng.NormFloat64()
			d.X[i] = append(d.X[i], x)
			d.Y[i] = append(d.Y[i], y)
		}
	}
	return d
}

func TestNewSelectsBackends(t *testing.T) {
	for _, c := range []struct{ kind, want string }{
		{"", KindLCM}, {KindLCM, KindLCM}, {KindGPIndep, KindGPIndep}, {KindSGP, KindSGP}, {KindRF, KindRF},
	} {
		f, err := New(c.kind)
		if err != nil {
			t.Fatalf("New(%q): %v", c.kind, err)
		}
		if f.Kind() != c.want {
			t.Fatalf("New(%q).Kind() = %q, want %q", c.kind, f.Kind(), c.want)
		}
	}
	if _, err := New("kriging"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestReadsWarmStartMatchesFit: the registry's warm-start fact is what each
// backend's Fit does. One marked as reading FitOptions.WarmStart fits other
// bits from an earlier model than cold, and one marked otherwise fits the
// same bits, so the engine skips archiving exactly the snapshots nothing reads.
func TestReadsWarmStartMatchesFit(t *testing.T) {
	data := testDataset(27, 2, 15)
	x := []float64{0.3, 0.6}
	for _, kind := range Kinds() {
		f, _ := New(kind)
		prev, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 40, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		short := FitOptions{NumStarts: 1, MaxIter: 2, Seed: 13}
		cold, err := f.Fit(data, short)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		short.WarmStart = prev
		warm, err := f.Fit(data, short)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		muC, vC := cold.PredictInto(cold.NewWorkspace(), 1, x)
		muW, vW := warm.PredictInto(warm.NewWorkspace(), 1, x)
		moved := math.Float64bits(muC) != math.Float64bits(muW) || math.Float64bits(vC) != math.Float64bits(vW)
		if moved != ReadsWarmStart(kind) {
			t.Errorf("%s: ReadsWarmStart %v, but a warm start moved the fit: %v", kind, ReadsWarmStart(kind), moved)
		}
	}
	if ReadsWarmStart("kriging") {
		t.Error("an unknown kind reads warm starts")
	}
}

// hostileDatasets are the degenerate histories a tuner meets in practice
// (Snoek et al.'s practical-BO caveats): one task whose every sample sits on
// the same point, so its covariance block is rank one before noise, and
// outputs that never vary, so standardization has no scale to divide by.
func hostileDatasets() map[string]*Dataset {
	dup := testDataset(11, 2, 12)
	for j := range dup.X[0] {
		dup.X[0][j] = []float64{0.3, 0.7}
	}
	flat := testDataset(12, 2, 12)
	for i := range flat.Y {
		for j := range flat.Y[i] {
			flat.Y[i][j] = 4.25
		}
	}
	return map[string]*Dataset{"duplicate-points": dup, "constant-outputs": flat}
}

// TestAllBackendsFitPredictRoundTrip exercises the full Model contract for
// every backend — fit and allocation-free prediction through a workspace,
// one point at a time and batched — and, for forests, whose snapshot is the
// fitted model, a marshal/unmarshal round trip that predicts bitwise
// identically; on an ordinary dataset and on the hostile ones, where the
// posterior must stay finite with a non-negative variance. (A GP backend's
// snapshot is its hyperparameters, which TestWarmStartRoundTrip and
// TestSGPWarmStart follow through a restore.)
func TestAllBackendsFitPredictRoundTrip(t *testing.T) {
	datasets := hostileDatasets()
	datasets["correlated"] = testDataset(1, 2, 12)
	for name, data := range datasets {
		for _, kind := range Kinds() {
			f, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			m, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 20, Seed: 7})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			if m.Kind() != kind || m.NumTasks() != 2 {
				t.Fatalf("%s/%s: Kind=%q NumTasks=%d", name, kind, m.Kind(), m.NumTasks())
			}
			back := m
			if kind == KindRF {
				blob, err := m.MarshalBinary()
				if err != nil {
					t.Fatalf("%s/%s marshal: %v", name, kind, err)
				}
				if back, err = f.UnmarshalBinary(blob); err != nil {
					t.Fatalf("%s/%s unmarshal: %v", name, kind, err)
				}
			}
			rng := rand.New(rand.NewSource(2))
			ws, wsBack := m.NewWorkspace(), back.NewWorkspace()
			var xs [2][][]float64
			var mus, vs [2][]float64
			for k := 0; k < 40; k++ {
				x := []float64{rng.Float64(), rng.Float64()}
				if k < 2 {
					x = data.X[k][0] // on top of a training point of each task
				}
				task := k % 2
				mu, v := m.PredictInto(ws, task, x)
				if math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s/%s: degenerate posterior (%v, %v) at %v", name, kind, mu, v, x)
				}
				mu2, v2 := back.PredictInto(wsBack, task, x)
				if math.Float64bits(mu) != math.Float64bits(mu2) || math.Float64bits(v) != math.Float64bits(v2) {
					t.Fatalf("%s/%s: round trip diverged at %v task %d", name, kind, x, task)
				}
				xs[task], mus[task], vs[task] = append(xs[task], x), append(mus[task], mu), append(vs[task], v)
			}
			// The batch path returns each point's own bits.
			for task := range xs {
				mean, variance := make([]float64, len(xs[task])), make([]float64, len(xs[task]))
				m.PredictBatchInto(ws, task, xs[task], mean, variance)
				for j := range mean {
					if math.Float64bits(mean[j]) != math.Float64bits(mus[task][j]) || math.Float64bits(variance[j]) != math.Float64bits(vs[task][j]) {
						t.Fatalf("%s/%s: PredictBatchInto point %d of task %d (%v, %v), PredictInto (%v, %v)",
							name, kind, j, task, mean[j], variance[j], mus[task][j], vs[task][j])
					}
				}
			}
		}
	}
}

// TestGPBackendsRejectWrongLengthPoint: the backends that predict through
// gp.PredictInto pass its refusal of a point of the wrong dimensionality on
// as a panic, rather than reading past the point or reusing a previous
// call's scratch; the workspace stays usable afterwards.
func TestGPBackendsRejectWrongLengthPoint(t *testing.T) {
	data := testDataset(3, 2, 10)
	for _, kind := range []string{KindLCM, KindGPIndep} {
		f, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Fit(data, FitOptions{NumStarts: 1, MaxIter: 5, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ws := m.NewWorkspace()
		x := []float64{0.3, 0.6}
		mu, v := m.PredictInto(ws, 1, x)
		for _, bad := range [][]float64{{0.3}, {0.3, 0.6, 0.9}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: PredictInto accepted a point with %d coordinates on a 2-dimensional model", kind, len(bad))
					}
				}()
				m.PredictInto(ws, 1, bad)
			}()
		}
		if mu2, v2 := m.PredictInto(ws, 1, x); math.Float64bits(mu2) != math.Float64bits(mu) || math.Float64bits(v2) != math.Float64bits(v) {
			t.Errorf("%s: prediction changed after rejected points: (%v, %v) then (%v, %v)", kind, mu, v, mu2, v2)
		}
	}
}

// TestFitDeterministicAcrossWorkers pins the determinism contract at the
// abstraction boundary for every backend.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	data := testDataset(3, 2, 10)
	for _, kind := range Kinds() {
		f, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 15, Seed: 5, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		m8, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 15, Seed: 5, Workers: 8})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		rng := rand.New(rand.NewSource(4))
		ws1, ws8 := m1.NewWorkspace(), m8.NewWorkspace()
		for k := 0; k < 30; k++ {
			x := []float64{rng.Float64(), rng.Float64()}
			task := k % 2
			muA, vA := m1.PredictInto(ws1, task, x)
			muB, vB := m8.PredictInto(ws8, task, x)
			if math.Float64bits(muA) != math.Float64bits(muB) || math.Float64bits(vA) != math.Float64bits(vB) {
				t.Fatalf("%s: workers=1 vs workers=8 diverged at %v task %d", kind, x, task)
			}
		}
	}
}

// TestGPIndepMatchesLCMSingleTask is the backend-parity contract: with one
// task there is nothing to share across tasks, so the independent-GP backend
// must reduce to the LCM backend exactly — same seed, same clamped Q, same
// optimizer trajectory, bitwise-identical posterior.
func TestGPIndepMatchesLCMSingleTask(t *testing.T) {
	data := testDataset(9, 1, 14)
	opts := FitOptions{NumStarts: 3, MaxIter: 40, Seed: 21}

	lcmF, _ := New(KindLCM)
	indepF, _ := New(KindGPIndep)
	a, err := lcmF.Fit(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := indepF.Fit(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	wsA, wsB := a.NewWorkspace(), b.NewWorkspace()
	for k := 0; k < 60; k++ {
		x := []float64{rng.Float64(), rng.Float64()}
		muA, vA := a.PredictInto(wsA, 0, x)
		muB, vB := b.PredictInto(wsB, 0, x)
		if math.Float64bits(muA) != math.Float64bits(muB) || math.Float64bits(vA) != math.Float64bits(vB) {
			t.Fatalf("lcm vs gp-indep diverged at %v: (%v,%v) vs (%v,%v)", x, muA, vA, muB, vB)
		}
	}
}

// TestWarmStartRoundTrip: a model warm-starts the next fit — changing (and
// determinizing) its optimizer trajectory for the GP backends — the same
// whether it is handed over live or restored from its snapshot, and another
// backend's model degrades to a cold start instead of failing.
func TestWarmStartRoundTrip(t *testing.T) {
	data := testDataset(11, 2, 10)
	rfF, _ := New(KindRF)
	forest, err := rfF.Fit(data, FitOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{KindLCM, KindGPIndep} {
		f, _ := New(kind)
		prev, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 40, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		blob, err := prev.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := f.UnmarshalBinary(blob)
		if err != nil {
			t.Fatal(err)
		}

		short := FitOptions{NumStarts: 1, MaxIter: 2, Seed: 13}
		cold, err := f.Fit(data, short)
		if err != nil {
			t.Fatal(err)
		}
		warmOpts := short
		warmOpts.WarmStart = prev
		warm, err := f.Fit(data, warmOpts)
		if err != nil {
			t.Fatal(err)
		}
		warmOpts.WarmStart = restored
		warm2, err := f.Fit(data, warmOpts)
		if err != nil {
			t.Fatal(err)
		}

		x := []float64{0.3, 0.6}
		wsC, wsW, wsW2 := cold.NewWorkspace(), warm.NewWorkspace(), warm2.NewWorkspace()
		muC, _ := cold.PredictInto(wsC, 0, x)
		muW, _ := warm.PredictInto(wsW, 0, x)
		muW2, _ := warm2.PredictInto(wsW2, 0, x)
		if math.Float64bits(muW) != math.Float64bits(muW2) {
			t.Fatalf("%s: fit warm-started from the restored model differs from the live model's", kind)
		}
		if math.Float64bits(muW) == math.Float64bits(muC) {
			t.Fatalf("%s: warm start had no effect (mu %v)", kind, muC)
		}

		// Another backend's model → cold start reproduced bitwise.
		badOpts := short
		badOpts.WarmStart = forest
		fallback, err := f.Fit(data, badOpts)
		if err != nil {
			t.Fatalf("%s: cross-kind warm start failed the fit: %v", kind, err)
		}
		wsF := fallback.NewWorkspace()
		muF, _ := fallback.PredictInto(wsF, 0, x)
		if math.Float64bits(muF) != math.Float64bits(muC) {
			t.Fatalf("%s: cross-kind warm start did not degrade to cold fit", kind)
		}
	}

	// Forests ignore warm starts entirely.
	m1 := forest
	m2, err := rfF.Fit(data, FitOptions{Seed: 2, WarmStart: forest})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.4, 0.2}
	muA, vA := m1.PredictInto(m1.NewWorkspace(), 0, x)
	muB, vB := m2.PredictInto(m2.NewWorkspace(), 0, x)
	if math.Float64bits(muA) != math.Float64bits(muB) || math.Float64bits(vA) != math.Float64bits(vB) {
		t.Fatal("rf: warm start changed the fitted forest")
	}
}

// TestGPSnapshotIsItsHyperparameters: a GP backend's restored model is
// exactly what its snapshot says — marshalling it again gives the same
// bytes — and it holds no training state, so an append is refused with an
// error (the engine's cue to refit) rather than extending nothing.
func TestGPSnapshotIsItsHyperparameters(t *testing.T) {
	data := testDataset(17, 2, 8)
	delta := &Dataset{Dim: 2, X: [][][]float64{{{0.5, 0.5}}, {{0.25, 0.75}}}, Y: [][]float64{{1}, {2}}}
	for _, kind := range []string{KindLCM, KindGPIndep, KindSGP} {
		f, _ := New(kind)
		m, err := f.Fit(data, FitOptions{NumStarts: 1, MaxIter: 5, Seed: 2, Inducing: 5})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := f.UnmarshalBinary(blob)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		again, err := restored.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(blob) {
			t.Errorf("%s: restored model marshals to %s, snapshot was %s", kind, again, blob)
		}
		if err := restored.(Incremental).Append(delta, 1); err == nil {
			t.Errorf("%s: restored model accepted an append", kind)
		}
	}
}

// TestUnmarshalRejectsCrossKind: snapshot containers are kind-tagged and a
// backend refuses another backend's snapshot.
func TestUnmarshalRejectsCrossKind(t *testing.T) {
	data := testDataset(15, 2, 8)
	rfF, _ := New(KindRF)
	indepF, _ := New(KindGPIndep)
	m, err := rfF.Fit(data, FitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := indepF.UnmarshalBinary(blob); err == nil {
		t.Fatal("gp-indep accepted an rf snapshot")
	}
	if _, err := rfF.UnmarshalBinary([]byte(`{"kind":"rf","models":[]}`)); err == nil {
		t.Fatal("empty model list accepted")
	}
	// A per-task cell routes at local task 0, so a multitask cell is refused.
	lcmF, _ := New(KindLCM)
	multi, err := lcmF.Fit(data, FitOptions{NumStarts: 1, MaxIter: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cell, err := multi.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := indepF.UnmarshalBinary([]byte(`{"kind":"gp-indep","models":[` + string(cell) + `]}`)); err == nil {
		t.Fatal("gp-indep accepted a two-task cell")
	}
}
