package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
// backend's Fit does. One marked as reading FitOptions.WarmStart decodes an
// earlier model's snapshot and fits other bits from it than cold, and one
// marked otherwise decodes nothing and fits the same bits from any vectors,
// so the engine skips archiving exactly the snapshots nothing reads.
func TestReadsWarmStartMatchesFit(t *testing.T) {
	data := testDataset(27, 2, 15)
	x := []float64{0.3, 0.6}
	for _, kind := range Kinds() {
		f, _ := New(kind)
		prev, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 40, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		blob, err := prev.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		short := FitOptions{NumStarts: 1, MaxIter: 2, Seed: 13}
		cold, err := f.Fit(data, short)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		short.WarmStart, err = WarmStart(kind, blob)
		if (err == nil) != ReadsWarmStart(kind) {
			t.Errorf("%s: ReadsWarmStart %v, but decoding its snapshot gave %v", kind, ReadsWarmStart(kind), err)
		}
		if err != nil {
			// A one-task GP layout over two dimensions: ls, a, b, d.
			short.WarmStart = [][]float64{{0.1, 0.2, 0.3, 0.4, 0.5}, {0.1, 0.2, 0.3, 0.4, 0.5}}
		}
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

// TestAllBackendsFitPredictRoundTrip exercises the Model contract for every
// backend — fit and allocation-free prediction through a workspace, one
// point at a time and batched — on an ordinary dataset and on the hostile
// ones, where the posterior must stay finite with a non-negative variance.
// (A snapshot is a warm start, which TestWarmStartRoundTrip and
// TestSGPWarmStart follow through WarmStart.)
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
			if m.Kind() != kind {
				t.Fatalf("%s/%s: Kind=%q", name, kind, m.Kind())
			}
			rng := rand.New(rand.NewSource(2))
			ws := m.NewWorkspace()
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

// liveWarmStart is what a fitted GP model would seed a fit with, read off
// the model itself: the lcm's Hyperparameters, or each per-task cell's (an
// sgp cell's subset fit's).
func liveWarmStart(t *testing.T, m Model) [][]float64 {
	t.Helper()
	var cells []Model
	switch p := m.(type) {
	case *lcmModel:
		return [][]float64{p.m.Hyperparameters()}
	case incrementalPerTask:
		cells = p.cells
	default:
		t.Fatalf("%s model has no hyperparameters", m.Kind())
	}
	warm := make([][]float64, len(cells))
	for i, c := range cells {
		switch c := c.(type) {
		case *lcmModel:
			warm[i] = c.m.Hyperparameters()
		case *taskSGP:
			warm[i] = c.fit.Hyperparameters()
		}
	}
	return warm
}

// requireSameVectors fails unless got and want hold the same vectors, bit
// for bit.
func requireSameVectors(t *testing.T, name string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: vector %d has %d values, want %d", name, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: vector %d value %d is %v, want %v", name, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestWarmStartRoundTrip: a model's snapshot warm-starts the next fit —
// changing (and determinizing) its optimizer trajectory for the GP
// backends — exactly as the model's own hyperparameters do; another
// backend's snapshot is refused, and a forest ignores whatever vectors it is
// handed.
func TestWarmStartRoundTrip(t *testing.T) {
	data := testDataset(11, 2, 10)
	rfF, _ := New(KindRF)
	forest, err := rfF.Fit(data, FitOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	forestBlob, err := forest.MarshalBinary()
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
		decoded, err := WarmStart(kind, blob)
		if err != nil {
			t.Fatal(err)
		}

		short := FitOptions{NumStarts: 1, MaxIter: 2, Seed: 13}
		cold, err := f.Fit(data, short)
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
			t.Fatalf("%s: fit warm-started from the snapshot differs from the live model's", kind)
		}
		if math.Float64bits(muW) == math.Float64bits(muC) {
			t.Fatalf("%s: warm start had no effect (mu %v)", kind, muC)
		}
		if _, err := WarmStart(kind, forestBlob); err == nil {
			t.Fatalf("%s: decoded a forest's snapshot", kind)
		}
	}

	// Forests ignore warm starts entirely.
	m1 := forest
	m2, err := rfF.Fit(data, FitOptions{Seed: 2, WarmStart: [][]float64{{1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}}})
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

// TestGPSnapshotIsItsHyperparameters: a GP backend's snapshot decodes to
// exactly the hyperparameters its model would seed a fit with, one vector
// for lcm and one per task for gp-indep and sgp.
func TestGPSnapshotIsItsHyperparameters(t *testing.T) {
	data := testDataset(17, 2, 8)
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
		warm, err := WarmStart(kind, blob)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		requireSameVectors(t, kind, warm, liveWarmStart(t, m))
	}
}

// thetaHash is a short digest of a warm start's bits, vector lengths
// included.
func thetaHash(warm [][]float64) string {
	h := sha256.New()
	for _, v := range warm {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(v))))
		for _, x := range v {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestWarmStartDecodesRecordedBits: WarmStart hands a fit the bits the last
// build that restored snapshots into models read off the restored model
// (Hyperparameters per cell, an sgp cell's subset-fit vector). The hashes
// were recorded with that build, for the snapshot of one small fit per GP
// backend and for the full snapshots in testdata, which earlier builds wrote
// with the training state.
func TestWarmStartDecodesRecordedBits(t *testing.T) {
	want := map[string][2]string{ // kind: {small fit, testdata file}
		KindLCM:     {"3548b4b902fdabe1", "d0e10cdc485d2c3f"},
		KindGPIndep: {"8e3299c164312853", "1a61090520a21f94"},
		KindSGP:     {"6dc1335a8242e4c8", "032278527a982cae"},
	}
	data := testDataset(33, 3, 9)
	for _, kind := range []string{KindLCM, KindGPIndep, KindSGP} {
		f, _ := New(kind)
		m, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 12, Seed: 4, Inducing: 6})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		fitBlob, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fileBlob, err := os.ReadFile(filepath.Join("testdata", "full_snapshot_"+kind+".json"))
		if err != nil {
			t.Fatal(err)
		}
		for i, blob := range [][]byte{fitBlob, fileBlob} {
			warm, err := WarmStart(kind, blob)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if got := thetaHash(warm); got != want[kind][i] {
				t.Errorf("%s snapshot %d: warm start hashes to %s, recorded %s", kind, i, got, want[kind][i])
			}
		}
	}
}

// TestUnmarshalRejectsCrossKind: WarmStart refuses a snapshot another
// backend wrote (per-task containers are kind-tagged), a per-task snapshot
// with no task, a gp-indep cell holding more than one task, any snapshot for
// a kind whose fit reads no warm start, and an unknown kind.
func TestUnmarshalRejectsCrossKind(t *testing.T) {
	data := testDataset(15, 2, 8)
	blobs := map[string][]byte{}
	for _, kind := range Kinds() {
		f, _ := New(kind)
		m, err := f.Fit(data, FitOptions{NumStarts: 1, MaxIter: 3, Seed: 3, Inducing: 4})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if blobs[kind], err = m.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range Kinds() {
		for other, blob := range blobs {
			if _, err := WarmStart(kind, blob); (err == nil) != (other == kind && ReadsWarmStart(kind)) {
				t.Errorf("WarmStart(%s, %s snapshot): error %v", kind, other, err)
			}
		}
	}
	if _, err := WarmStart(KindGPIndep, []byte(`{"kind":"gp-indep","models":[]}`)); err == nil {
		t.Error("empty model list accepted")
	}
	// A per-task cell is a one-task fit, so a multitask cell is refused.
	if _, err := WarmStart(KindGPIndep, []byte(`{"kind":"gp-indep","models":[`+string(blobs[KindLCM])+`]}`)); err == nil {
		t.Error("gp-indep accepted a two-task cell")
	}
	// Its vector's length proves nothing: Q = 1, δ = 2, dim = 1 has the
	// length of a one-task dim = 4 fit's (7).
	cell := `{"q":1,"num_tasks":2,"dim":1,"ls":[[1]],"a":[[1,1]],"b":[[1,1]],"d":[1,1]}`
	if _, err := WarmStart(KindGPIndep, []byte(`{"kind":"gp-indep","models":[`+cell+`]}`)); err == nil {
		t.Error("gp-indep accepted a two-task cell of a one-task vector's length")
	}
	if _, err := WarmStart("kriging", blobs[KindLCM]); err == nil {
		t.Error("an unknown kind decoded a snapshot")
	}
}
