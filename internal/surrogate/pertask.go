package surrogate

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/rng"
)

// perTaskFitter fits δ independent single-task models, one "cell" per task,
// each with the cell fitter — the gp-indep (cells: the lcm backend), sgp and
// rf backends. No information flows between tasks: cell i sees task i's
// samples alone as a one-task dataset, its own seed rng.Mix(opts.Seed,
// rng.Cell, i) (task 0 keeps opts.Seed) and, as its warm start, cell i of a
// per-task model the options carry. On a single-task dataset gp-indep is
// therefore the lcm backend itself, bit for bit.
type perTaskFitter struct {
	kind string
	cell Fitter
}

func (f perTaskFitter) Kind() string { return f.kind }

// taskData is task i's slice of data as a one-task dataset.
func taskData(data *Dataset, i int) *Dataset {
	return &Dataset{Dim: data.Dim, X: data.X[i : i+1], Y: data.Y[i : i+1]}
}

func (f perTaskFitter) Fit(data *Dataset, opts FitOptions) (Model, error) {
	if err := data.Validate(); err != nil {
		return nil, err
	}
	warm := cellsOf(opts.WarmStart)
	cells := make([]Model, data.NumTasks())
	for i := range cells {
		co := opts
		if i > 0 { // task 0 keeps the seed: the single-task parity guarantee depends on it
			co.Seed = rng.Mix(opts.Seed, rng.Cell, uint64(i))
		}
		co.WarmStart = nil
		if i < len(warm) {
			co.WarmStart = warm[i]
		}
		c, err := f.cell.Fit(taskData(data, i), co)
		if err != nil {
			return nil, fmt.Errorf("surrogate: fitting task %d %s model: %w", i, f.kind, err)
		}
		cells[i] = c
	}
	return newPerTaskModel(f.kind, cells), nil
}

// multiSnapshot is the wire form of a per-task model: the kind tag rejects
// cross-backend loads early, and Models holds each cell's own snapshot.
type multiSnapshot struct {
	Kind   string            `json:"kind"`
	Models []json.RawMessage `json:"models"`
}

func (f perTaskFitter) UnmarshalBinary(data []byte) (Model, error) {
	var snap multiSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("surrogate: decoding %s snapshot: %w", f.kind, err)
	}
	if snap.Kind != f.kind {
		return nil, fmt.Errorf("surrogate: snapshot kind %q, want %q", snap.Kind, f.kind)
	}
	if len(snap.Models) == 0 {
		return nil, errors.New("surrogate: snapshot has no per-task models")
	}
	cells := make([]Model, len(snap.Models))
	for i, blob := range snap.Models {
		c, err := f.cell.UnmarshalBinary(blob)
		if err != nil {
			return nil, fmt.Errorf("surrogate: task %d snapshot: %w", i, err)
		}
		if c.NumTasks() != 1 {
			return nil, fmt.Errorf("surrogate: task %d snapshot holds %d tasks, want 1", i, c.NumTasks())
		}
		cells[i] = c
	}
	return newPerTaskModel(f.kind, cells), nil
}

// perTaskModel holds δ single-task cells; task i's predictions route to
// cells[i] at its local task 0.
type perTaskModel struct {
	kind  string
	cells []Model
}

// incrementalPerTask is a perTaskModel whose cells extend in place (gp-indep,
// sgp). Forests do not, so an rf model stays a bare *perTaskModel and the
// engine refits it.
type incrementalPerTask struct{ *perTaskModel }

func newPerTaskModel(kind string, cells []Model) Model {
	p := &perTaskModel{kind: kind, cells: cells}
	if _, ok := cells[0].(Incremental); ok {
		return incrementalPerTask{p}
	}
	return p
}

// cellsOf returns a per-task model's cells, or nil for any other model.
func cellsOf(m Model) []Model {
	switch p := m.(type) {
	case *perTaskModel:
		return p.cells
	case incrementalPerTask:
		return p.cells
	}
	return nil
}

func (p *perTaskModel) Kind() string  { return p.kind }
func (p *perTaskModel) NumTasks() int { return len(p.cells) }

// perTaskWorkspace carries one cell workspace per task so a searcher
// goroutine can probe any task allocation-free.
type perTaskWorkspace []Workspace

func (p *perTaskModel) NewWorkspace() Workspace {
	ws := make(perTaskWorkspace, len(p.cells))
	for i, c := range p.cells {
		ws[i] = c.NewWorkspace()
	}
	return ws
}

//gptlint:hotpath
func (p *perTaskModel) PredictInto(ws Workspace, task int, x []float64) (mean, variance float64) {
	return p.cells[task].PredictInto(ws.(perTaskWorkspace)[task], 0, x)
}

//gptlint:hotpath
func (p *perTaskModel) PredictBatchInto(ws Workspace, task int, xs [][]float64, mean, variance []float64) {
	p.cells[task].PredictBatchInto(ws.(perTaskWorkspace)[task], 0, xs, mean, variance)
}

func (p *perTaskModel) MarshalBinary() ([]byte, error) {
	blobs := make([]json.RawMessage, len(p.cells))
	for i, c := range p.cells {
		blob, err := c.MarshalBinary()
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
	}
	return json.Marshal(multiSnapshot{Kind: p.kind, Models: blobs})
}

// Append validates every task's slice of the delta before it extends any
// cell, so a refused delta leaves every task's posterior as it was; then
// cell i absorbs task i's new samples at its local task 0.
func (p incrementalPerTask) Append(data *Dataset, workers int) error {
	if len(data.X) != len(p.cells) || len(data.Y) != len(p.cells) {
		return fmt.Errorf("surrogate: %s append got %d tasks, model has %d", p.kind, len(data.X), len(p.cells))
	}
	for i := range p.cells {
		// An empty slice is fine — deltas carry only what is new — and is
		// the one thing Dataset.Validate would reject.
		if len(data.X[i]) == 0 && len(data.Y[i]) == 0 {
			continue
		}
		if err := taskData(data, i).Validate(); err != nil {
			return fmt.Errorf("surrogate: append task %d: %w", i, err)
		}
	}
	for i, c := range p.cells {
		if len(data.X[i]) == 0 {
			continue
		}
		if err := c.(Incremental).Append(taskData(data, i), workers); err != nil {
			return fmt.Errorf("surrogate: appending task %d: %w", i, err)
		}
	}
	return nil
}
