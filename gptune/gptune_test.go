package gptune_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/gptune"
)

func demoProblem() *gptune.Problem {
	return &gptune.Problem{
		Name:    "demo",
		Tasks:   gptune.NewSpace(gptune.Real("t", 0, 1)),
		Tuning:  gptune.NewSpace(gptune.Real("x", 0, 1)),
		Outputs: gptune.Outputs("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			d := x[0] - 0.4
			return []float64{task[0] + d*d}, nil
		},
	}
}

func TestTuneEndToEnd(t *testing.T) {
	res, err := gptune.Tune(demoProblem(), [][]float64{{0}, {0.5}}, gptune.Options{EpsTot: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 2 {
		t.Fatalf("tasks = %d", len(res.Tasks))
	}
	for i, tr := range res.Tasks {
		x, y := tr.Best()
		if math.Abs(x[0]-0.4) > 0.2 {
			t.Errorf("task %d: best x = %v, want near 0.4 (y=%v)", i, x[0], y[0])
		}
	}
}

func TestSampleTasks(t *testing.T) {
	tasks, err := gptune.SampleTasks(demoProblem(), 5, 2)
	if err != nil || len(tasks) != 5 {
		t.Fatalf("SampleTasks: %v %v", tasks, err)
	}
	for _, task := range tasks {
		if task[0] < 0 || task[0] > 1 {
			t.Fatalf("task out of range: %v", task)
		}
	}
}

func TestNewTunerDispatch(t *testing.T) {
	for _, name := range gptune.TunerNames() {
		tn, err := gptune.NewTuner(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tn.Name() != name {
			t.Fatalf("%s resolves to a tuner that calls itself %s", name, tn.Name())
		}
		tr, err := tn.Tune(demoProblem(), []float64{0}, 8, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.X) == 0 {
			t.Fatalf("%s: no evaluations", name)
		}
	}
	// An unknown name is rejected with the valid ones — and "gptune" is
	// one: it names multitask MLA (Tune), never a single-task Tuner.
	for _, name := range []string{"bogus", "gptune"} {
		_, err := gptune.NewTuner(name)
		if err == nil {
			t.Fatalf("unknown tuner %q accepted", name)
		}
		for _, have := range gptune.TunerNames() {
			if !strings.Contains(err.Error(), have) {
				t.Fatalf("error %q does not list %s", err, have)
			}
		}
	}
}

func TestHistoryIntegration(t *testing.T) {
	res, err := gptune.Tune(demoProblem(), [][]float64{{0}}, gptune.Options{EpsTot: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	db := gptune.NewHistory()
	gptune.RecordResult(db, "demo", res)
	if db.Len() != 6 {
		t.Fatalf("recorded %d evaluations, want 6", db.Len())
	}
	path := filepath.Join(t.TempDir(), "hist.json")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := gptune.LoadHistory(path)
	if err != nil || loaded.Len() != 6 {
		t.Fatalf("load: %v %d", err, loaded.Len())
	}
	best, ok := loaded.Best("demo", res.Tasks[0].Task)
	if !ok {
		t.Fatalf("no best record")
	}
	_, wantY := res.Tasks[0].Best()
	if best.Outputs[0] != wantY[0] {
		t.Fatalf("archived best %v != run best %v", best.Outputs[0], wantY[0])
	}
}

// TestRecordResultSkipsPriors: a run seeded from an archive carries the
// prior samples in its result, and recording it back must add only the
// run's own evaluations — 6 archived + 6 new, not 6 + 12 with 6 duplicates.
func TestRecordResultSkipsPriors(t *testing.T) {
	p := demoProblem()
	tasks := [][]float64{{0}}
	res, err := gptune.Tune(p, tasks, gptune.Options{EpsTot: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	db := gptune.NewHistory()
	gptune.RecordResult(db, "demo", res)
	res2, err := gptune.Tune(p, tasks, gptune.Options{EpsTot: 6, Seed: 6, Prior: gptune.PriorFromHistory(db, "demo", tasks)})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res2.Tasks[0].X); n != 12 {
		t.Fatalf("seeded run holds %d samples, want 12 (6 prior + 6 new)", n)
	}
	gptune.RecordResult(db, "demo", res2)
	if db.Len() != 12 {
		t.Fatalf("archive holds %d records after recording the seeded run, want 12", db.Len())
	}
	// The same evaluations under another problem name are not duplicates.
	gptune.RecordResult(db, "other", res)
	if db.Len() != 18 {
		t.Fatalf("archive holds %d records after recording under a second problem, want 18", db.Len())
	}
}

func TestPriorFromHistory(t *testing.T) {
	p := demoProblem()
	res, err := gptune.Tune(p, [][]float64{{0}}, gptune.Options{EpsTot: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	db := gptune.NewHistory()
	gptune.RecordResult(db, "demo", res)

	// Warm-start a second run from the archive.
	prior := gptune.PriorFromHistory(db, "demo", [][]float64{{0}})
	if len(prior) != 6 {
		t.Fatalf("prior has %d samples, want 6", len(prior))
	}
	res2, err := gptune.Tune(p, [][]float64{{0}}, gptune.Options{EpsTot: 4, Seed: 6, Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Tasks[0].X) != 10 {
		t.Fatalf("warm-started dataset has %d samples, want 10 (4 new + 6 prior)", len(res2.Tasks[0].X))
	}
	// Unmatched tasks produce no priors.
	if got := gptune.PriorFromHistory(db, "demo", [][]float64{{0.77}}); len(got) != 0 {
		t.Fatalf("unexpected priors for unseen task: %d", len(got))
	}

	// A checkpoint log is an archive too: its evaluations come back as the
	// run's history bitwise, the model snapshots logged between them are not
	// mistaken for evaluations, and LoadModelSnapshots finds those — one per
	// search generation (ε_tot 6 = 3 initial + 3 searched).
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cp, err := gptune.NewCheckpoint(path, gptune.CheckpointOptions{Problem: "demo"})
	if err != nil {
		t.Fatal(err)
	}
	res, err = gptune.Tune(p, [][]float64{{0}}, gptune.Options{EpsTot: 6, Seed: 5, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	logged, err := gptune.LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	prior = gptune.PriorFromHistory(logged, "demo", [][]float64{{0}})
	if len(prior) != len(res.Tasks[0].X) {
		t.Fatalf("checkpoint log yields %d prior samples, run produced %d", len(prior), len(res.Tasks[0].X))
	}
	for i, ps := range prior {
		if math.Float64bits(ps.X[0]) != math.Float64bits(res.Tasks[0].X[i][0]) ||
			math.Float64bits(ps.Y[0]) != math.Float64bits(res.Tasks[0].Y[i][0]) {
			t.Fatalf("prior sample %d does not match the run's history: %+v", i, ps)
		}
	}
	snaps, err := gptune.LoadModelSnapshots(path)
	if err != nil || len(snaps) != 3 {
		t.Fatalf("checkpoint log yields %d model snapshots (%v), want 3", len(snaps), err)
	}
}

// TestSurrogateSnapshotWarmStartsAFit: a standalone Surrogate's snapshot
// bytes decode to its Hyperparameters, bit for bit, and seed a later fit
// exactly as those do.
func TestSurrogateSnapshotWarmStartsAFit(t *testing.T) {
	data := &gptune.Dataset{Dim: 1, X: make([][][]float64, 2), Y: make([][]float64, 2)}
	for i := range data.X {
		for j := 0; j < 8; j++ {
			x := float64(j) / 7
			data.X[i] = append(data.X[i], []float64{x})
			data.Y[i] = append(data.Y[i], math.Sin(3*x)+0.5*float64(i)*x)
		}
	}
	prev, err := gptune.FitSurrogate(data, gptune.SurrogateOptions{NumStarts: 1, MaxIter: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := prev.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	theta, err := gptune.DecodeSurrogateHyperparameters(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := prev.Hyperparameters()
	if len(theta) != len(want) {
		t.Fatalf("decoded %d hyperparameters, the model has %d", len(theta), len(want))
	}
	for i := range want {
		if math.Float64bits(theta[i]) != math.Float64bits(want[i]) {
			t.Fatalf("theta[%d] = %v decoded, %v saved", i, theta[i], want[i])
		}
	}
	a, err := gptune.FitSurrogate(data, gptune.SurrogateOptions{NumStarts: 1, MaxIter: 2, Seed: 5, Init: theta})
	if err != nil {
		t.Fatal(err)
	}
	b, err := gptune.FitSurrogate(data, gptune.SurrogateOptions{NumStarts: 1, MaxIter: 2, Seed: 5, Init: want})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.LogLik) != math.Float64bits(b.LogLik) {
		t.Fatalf("fit from the decoded snapshot reached loglik %v, from the model's hyperparameters %v", a.LogLik, b.LogLik)
	}
	if _, err := gptune.DecodeSurrogateHyperparameters([]byte(`{}`)); err == nil {
		t.Fatal("an empty snapshot decoded")
	}
}
