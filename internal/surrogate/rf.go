package surrogate

import "repro/internal/rf"

// rfFitter grows one task's random forest — the cell of the SuRF-style rf
// backend. No uncertainty calibration is attempted beyond the across-tree
// variance; the acquisition layer's variance floor absorbs the forests'
// habit of reporting exactly zero variance deep inside leaves. Forests
// ignore warm starts.
type rfFitter struct{}

func (rfFitter) Kind() string { return KindRF }

func (rfFitter) Fit(data *Dataset, opts FitOptions) (Model, error) {
	f, err := rf.Fit(data.X[0], data.Y[0], rf.Params{Seed: opts.Seed, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	return forestModel{f}, nil
}

func (rfFitter) UnmarshalBinary(data []byte) (Model, error) {
	var f rf.Forest
	if err := f.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return forestModel{&f}, nil
}

// forestModel is one task's forest. Prediction walks fixed trees with no
// scratch state, so the workspace is nil and PredictInto ignores it.
type forestModel struct{ *rf.Forest }

func (forestModel) Kind() string            { return KindRF }
func (forestModel) NumTasks() int           { return 1 }
func (forestModel) NewWorkspace() Workspace { return nil }

//gptlint:hotpath
func (r forestModel) PredictInto(_ Workspace, _ int, x []float64) (mean, variance float64) {
	return r.Predict(x)
}

//gptlint:hotpath
func (r forestModel) PredictBatchInto(_ Workspace, _ int, xs [][]float64, mean, variance []float64) {
	for j, x := range xs {
		mean[j], variance[j] = r.Predict(x)
	}
}
