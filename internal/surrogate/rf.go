package surrogate

import "repro/internal/rf"

// rfFitter grows one task's random forest — the cell of the SuRF-style rf
// backend. No uncertainty calibration is attempted beyond the across-tree
// variance; the acquisition layer's variance floor absorbs the forests'
// habit of reporting exactly zero variance deep inside leaves. Forests
// ignore warm starts, so the registry gives rf no snapshot decoder.
type rfFitter struct{}

func (rfFitter) Kind() string { return KindRF }

func (rfFitter) Fit(data *Dataset, opts FitOptions) (Model, error) {
	f, err := rf.Fit(data.X[0], data.Y[0], rf.Params{Seed: opts.Seed, Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	return forestModel{f}, nil
}

// forestModel is one task's forest. Its workspace holds one prediction per
// tree, so a point walks each tree once and allocates nothing.
type forestModel struct{ *rf.Forest }

func (forestModel) Kind() string              { return KindRF }
func (r forestModel) NewWorkspace() Workspace { return make([]float64, r.NumTrees()) }

// MarshalBinary returns an empty snapshot: a forest is regrown from the data
// alone, so nothing would read its trees.
func (forestModel) MarshalBinary() ([]byte, error) { return []byte("{}"), nil }

//gptlint:hotpath
func (r forestModel) PredictInto(ws Workspace, _ int, x []float64) (mean, variance float64) {
	return r.PredictWith(ws.([]float64), x)
}

//gptlint:hotpath
func (r forestModel) PredictBatchInto(ws Workspace, _ int, xs [][]float64, mean, variance []float64) {
	scratch := ws.([]float64)
	for j, x := range xs {
		mean[j], variance[j] = r.PredictWith(scratch, x)
	}
}
