package surrogate

import (
	"encoding/json"
	"fmt"

	"repro/internal/rf"
)

// rfFitter grows one random forest per task — the SuRF-style baseline. No
// uncertainty calibration is attempted beyond the across-tree variance; the
// acquisition layer's variance floor absorbs the forests' habit of reporting
// exactly zero variance deep inside leaves.
type rfFitter struct{}

func (rfFitter) Kind() string { return KindRF }

func (rfFitter) Fit(data *Dataset, opts FitOptions) (Model, error) {
	if err := data.Validate(); err != nil {
		return nil, err
	}
	forests := make([]*rf.Forest, data.NumTasks())
	for i := range forests {
		f, err := rf.Fit(data.X[i], data.Y[i], rf.Params{
			Seed:    perTaskSeed(opts.Seed, i),
			Workers: opts.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("surrogate: fitting task %d forest: %w", i, err)
		}
		forests[i] = f
	}
	return &rfModel{forests: forests}, nil
}

func (rfFitter) UnmarshalBinary(data []byte) (Model, error) {
	blobs, err := decodeMultiSnapshot(data, KindRF)
	if err != nil {
		return nil, err
	}
	forests := make([]*rf.Forest, len(blobs))
	for i, blob := range blobs {
		var f rf.Forest
		if err := f.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("surrogate: task %d snapshot: %w", i, err)
		}
		forests[i] = &f
	}
	return &rfModel{forests: forests}, nil
}

// rfModel holds δ per-task forests. Forest prediction walks fixed trees with
// no scratch state, so the workspace is nil and PredictInto ignores it.
type rfModel struct {
	forests []*rf.Forest
}

func (r *rfModel) Kind() string            { return KindRF }
func (r *rfModel) NumTasks() int           { return len(r.forests) }
func (r *rfModel) NewWorkspace() Workspace { return nil }

//gptlint:hotpath
func (r *rfModel) PredictInto(_ Workspace, task int, x []float64) (mean, variance float64) {
	return r.forests[task].Predict(x)
}

//gptlint:hotpath
func (r *rfModel) PredictBatchInto(ws Workspace, task int, xs [][]float64, mean, variance []float64) {
	for j, x := range xs {
		mean[j], variance[j] = r.PredictInto(ws, task, x)
	}
}

func (r *rfModel) MarshalBinary() ([]byte, error) {
	blobs := make([]json.RawMessage, len(r.forests))
	for i, f := range r.forests {
		blob, err := f.MarshalBinary()
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
	}
	return encodeMultiSnapshot(KindRF, blobs)
}
