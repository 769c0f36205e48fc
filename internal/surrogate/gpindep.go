package surrogate

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/gp"
)

// gpIndepFitter fits one single-task GP per task — the multitask ablation:
// identical kernels and optimizer to the LCM backend, but no information
// flows between tasks. On a single-task dataset it is bitwise identical to
// the lcm backend (task 0's fit receives exactly opts.Seed, and FitLCM
// clamps Q to δ=1 either way), which the cross-backend parity test pins.
type gpIndepFitter struct{}

func (gpIndepFitter) Kind() string { return KindGPIndep }

// perTaskSeed spreads task fits across seed space. Task 0 keeps the base
// seed unchanged — the single-task parity guarantee depends on it.
func perTaskSeed(base int64, task int) int64 {
	return base + int64(task)*1000003
}

func (gpIndepFitter) Fit(data *Dataset, opts FitOptions) (Model, error) {
	if err := data.Validate(); err != nil {
		return nil, err
	}
	warm, _ := opts.WarmStart.(*gpIndepModel)
	models := make([]*gp.LCM, data.NumTasks())
	for i := range models {
		sub := &Dataset{Dim: data.Dim, X: data.X[i : i+1], Y: data.Y[i : i+1]}
		fo := gp.FitOptions{
			Q:         opts.Q,
			NumStarts: opts.NumStarts,
			Workers:   opts.Workers,
			MaxIter:   opts.MaxIter,
			Seed:      perTaskSeed(opts.Seed, i),
		}
		if warm != nil && i < len(warm.models) {
			fo.Init = warm.models[i].Hyperparameters()
		}
		m, err := gp.FitLCM(sub, fo)
		if err != nil {
			return nil, fmt.Errorf("surrogate: fitting task %d GP: %w", i, err)
		}
		models[i] = m
	}
	return &gpIndepModel{models: models}, nil
}

func (gpIndepFitter) UnmarshalBinary(data []byte) (Model, error) {
	blobs, err := decodeMultiSnapshot(data, KindGPIndep)
	if err != nil {
		return nil, err
	}
	models := make([]*gp.LCM, len(blobs))
	for i, blob := range blobs {
		var m gp.LCM
		if err := m.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("surrogate: task %d snapshot: %w", i, err)
		}
		models[i] = &m
	}
	return &gpIndepModel{models: models}, nil
}

// gpIndepModel holds δ independent single-task GPs; task i predictions route
// to models[i] with its local task index 0.
type gpIndepModel struct {
	models []*gp.LCM
}

func (g *gpIndepModel) Kind() string  { return KindGPIndep }
func (g *gpIndepModel) NumTasks() int { return len(g.models) }

// gpIndepWorkspace carries one gp workspace per task so a searcher goroutine
// can probe any task allocation-free.
type gpIndepWorkspace struct {
	wss []*gp.PredictWorkspace
}

func (g *gpIndepModel) NewWorkspace() Workspace {
	wss := make([]*gp.PredictWorkspace, len(g.models))
	for i, m := range g.models {
		wss[i] = m.NewPredictWorkspace()
	}
	return &gpIndepWorkspace{wss: wss}
}

//gptlint:hotpath
func (g *gpIndepModel) PredictInto(ws Workspace, task int, x []float64) (mean, variance float64) {
	return g.models[task].PredictInto(ws.(*gpIndepWorkspace).wss[task], 0, x)
}

//gptlint:hotpath
func (g *gpIndepModel) PredictBatchInto(ws Workspace, task int, xs [][]float64, mean, variance []float64) {
	g.models[task].PredictBatchInto(ws.(*gpIndepWorkspace).wss[task], 0, xs, mean, variance)
}

// Append extends each per-task GP with its slice of the delta (task i's new
// samples go to sub-model i at its local task index 0). A mid-loop failure
// leaves earlier tasks extended — the caller's refit fallback re-derives
// every model from data, so partial application is harmless.
func (g *gpIndepModel) Append(data *Dataset, workers int) error {
	if len(data.X) != len(g.models) || len(data.Y) != len(g.models) {
		return fmt.Errorf("surrogate: gp-indep append got %d tasks, model has %d", len(data.X), len(g.models))
	}
	for i, m := range g.models {
		if len(data.X[i]) == 0 {
			continue
		}
		tasks := make([]int, len(data.X[i]))
		if err := m.AppendObservations(data.X[i], tasks, data.Y[i], workers); err != nil {
			return fmt.Errorf("surrogate: appending task %d: %w", i, err)
		}
	}
	return nil
}

func (g *gpIndepModel) MarshalBinary() ([]byte, error) {
	blobs := make([]json.RawMessage, len(g.models))
	for i, m := range g.models {
		blob, err := m.MarshalBinary()
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
	}
	return encodeMultiSnapshot(KindGPIndep, blobs)
}

// multiSnapshot is the wire container for per-task model collections
// (gp-indep and rf). The kind tag rejects cross-backend loads early.
type multiSnapshot struct {
	Kind   string            `json:"kind"`
	Models []json.RawMessage `json:"models"`
}

func encodeMultiSnapshot(kind string, blobs []json.RawMessage) ([]byte, error) {
	return json.Marshal(multiSnapshot{Kind: kind, Models: blobs})
}

func decodeMultiSnapshot(data []byte, kind string) ([]json.RawMessage, error) {
	var snap multiSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("surrogate: decoding %s snapshot: %w", kind, err)
	}
	if snap.Kind != kind {
		return nil, fmt.Errorf("surrogate: snapshot kind %q, want %q", snap.Kind, kind)
	}
	if len(snap.Models) == 0 {
		return nil, errors.New("surrogate: snapshot has no per-task models")
	}
	return snap.Models, nil
}
