package surrogate

import (
	"fmt"

	"repro/internal/gp"
)

// lcmFitter is the default backend: the paper's multitask LCM, delegating to
// internal/gp. The translation to gp.FitOptions is field-for-field so a fit
// through this wrapper is bitwise identical to calling gp.FitLCM directly —
// the refactor's compatibility contract with pre-surrogate histories.
type lcmFitter struct{}

func (lcmFitter) Kind() string { return KindLCM }

func (lcmFitter) Fit(data *Dataset, opts FitOptions) (Model, error) {
	fo := gp.FitOptions{
		Q:         opts.Q,
		NumStarts: opts.NumStarts,
		Workers:   opts.Workers,
		MaxIter:   opts.MaxIter,
		Seed:      opts.Seed,
	}
	// FitLCM itself ignores a vector whose layout doesn't match this fit.
	if len(opts.WarmStart) > 0 {
		fo.Init = opts.WarmStart[0]
	}
	m, err := gp.FitLCM(data, fo)
	if err != nil {
		return nil, err
	}
	return &lcmModel{m: m}, nil
}

// decodeLCM is the lcm backend's WarmStart: its snapshot is gp's, one
// vector for the one multitask fit.
func decodeLCM(snapshot []byte) ([][]float64, error) {
	theta, _, err := gp.DecodeHyperparameters(snapshot)
	if err != nil {
		return nil, err
	}
	return [][]float64{theta}, nil
}

// decodeLCMCell decodes one gp-indep cell's snapshot, refusing a multitask
// model's: a cell is a one-task fit, whatever length the vector has.
func decodeLCMCell(snapshot []byte) ([]float64, error) {
	theta, tasks, err := gp.DecodeHyperparameters(snapshot)
	if err != nil {
		return nil, err
	}
	if tasks != 1 {
		return nil, fmt.Errorf("surrogate: cell snapshot holds %d tasks, want 1", tasks)
	}
	return theta, nil
}

// lcmModel adapts *gp.LCM to the Model interface.
type lcmModel struct {
	m *gp.LCM
}

func (l *lcmModel) Kind() string            { return KindLCM }
func (l *lcmModel) NewWorkspace() Workspace { return l.m.NewPredictWorkspace() }

//gptlint:hotpath
func (l *lcmModel) PredictInto(ws Workspace, task int, x []float64) (mean, variance float64) {
	return l.m.PredictInto(ws.(*gp.PredictWorkspace), task, x)
}

//gptlint:hotpath
func (l *lcmModel) PredictBatchInto(ws Workspace, task int, xs [][]float64, mean, variance []float64) {
	l.m.PredictBatchInto(ws.(*gp.PredictWorkspace), task, xs, mean, variance)
}

func (l *lcmModel) MarshalBinary() ([]byte, error) { return l.m.MarshalBinary() }

// Append extends the wrapped LCM with the delta's samples via the rank-k
// packed Cholesky extension (gp.AppendObservations): hyperparameters frozen,
// O(k·n²) instead of a refit's O(n³).
func (l *lcmModel) Append(data *Dataset, workers int) error {
	if len(data.X) != l.m.NumTasks || len(data.Y) != len(data.X) {
		return fmt.Errorf("surrogate: lcm append got %d tasks, model has %d", len(data.X), l.m.NumTasks)
	}
	total := 0
	for i := range data.X {
		total += len(data.X[i])
	}
	if total == 0 {
		return nil
	}
	xs := make([][]float64, 0, total)
	tasks := make([]int, 0, total)
	ys := make([]float64, 0, total)
	for i := range data.X {
		for j := range data.X[i] {
			xs = append(xs, data.X[i][j])
			tasks = append(tasks, i)
			ys = append(ys, data.Y[i][j])
		}
	}
	return l.m.AppendObservations(xs, tasks, ys, workers)
}
