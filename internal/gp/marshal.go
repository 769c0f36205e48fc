// Portable serialization of fitted LCM models. A snapshot captures both the
// learned hyperparameters (for warm-starting a later fit via
// FitOptions.Init) and the training state (coordinates, task labels,
// standardized outputs, jitter), so UnmarshalBinary can rebuild the full
// prediction path — covariance assembly, Cholesky factorization, alpha
// solve, fast-path tables — without access to the original Dataset. Floats
// survive the JSON round-trip exactly (encoding/json emits shortest
// round-trippable literals), so a saved-and-reloaded fitted model predicts
// bitwise identically to the original. An appended one does too while it
// fits in one cholBlock: its covariance rows are the ones the reload
// assembles, and only the blocked Cholesky's summation order past 64 rows
// can move the last bits (AppendObservations).
package gp

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// lcmSnapshot is the wire form of a fitted LCM. Float fields use the
// non-finite-safe wire types: a fitted hyperparameter can legitimately be
// +Inf (the optimizer drives a log-lengthscale past exp's range — an
// infinite lengthscale just means that dimension stopped mattering), and
// encoding/json rejects bare non-finite numbers.
type lcmSnapshot struct {
	Q        int      `json:"q"`
	NumTasks int      `json:"num_tasks"`
	Dim      int      `json:"dim"`
	Ls       []nfVec  `json:"ls"`
	A        []nfVec  `json:"a"`
	B        []nfVec  `json:"b"`
	D        nfVec    `json:"d"`
	LogLik   nfScalar `json:"loglik"`
	Jitter   nfScalar `json:"jitter"`
	YMean    nfScalar `json:"y_mean"`
	YStd     nfScalar `json:"y_std"`
	X        nfVec    `json:"x,omitempty"` // row-major training coordinates, n×Dim
	TaskOf   []int    `json:"task_of,omitempty"`
	YNorm    nfVec    `json:"y_norm,omitempty"`
}

// nfScalar is a float64 whose JSON form admits non-finite values, encoded as
// the strings "Inf", "-Inf" and "NaN". Finite values use encoding/json's
// shortest round-trippable literals, so they survive bitwise; NaN collapses
// to the canonical quiet NaN (payload bits are not preserved).
type nfScalar float64

func (s nfScalar) MarshalJSON() ([]byte, error) {
	v := float64(s)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

func (s *nfScalar) UnmarshalJSON(data []byte) error {
	return unmarshalNF(data, (*float64)(s))
}

// NFScalar and NFVec expose the non-finite-safe wire types to other
// packages' snapshot formats (the surrogate package's sparse-GP backend
// serializes hyperparameters with the same Inf/NaN hazards).
type (
	NFScalar = nfScalar
	NFVec    = nfVec
)

// nfVec is a []float64 whose elements use the nfScalar wire form.
type nfVec []float64

func (v nfVec) MarshalJSON() ([]byte, error) {
	buf := append(make([]byte, 0, 8+16*len(v)), '[')
	for i, x := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		b, err := nfScalar(x).MarshalJSON()
		if err != nil {
			return nil, err
		}
		buf = append(buf, b...)
	}
	return append(buf, ']'), nil
}

func (v *nfVec) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make([]float64, len(raw))
	for i, r := range raw {
		if err := unmarshalNF(r, &out[i]); err != nil {
			return err
		}
	}
	*v = out
	return nil
}

// unmarshalNF is the one rule for a snapshot float: a JSON number in float64
// range, null (out stays as it is, as with encoding/json), or one of the
// three non-finite strings. data is a value encoding/json has already
// scanned, so a leading '-' or digit means a well-formed number literal, and
// strconv.ParseFloat — the conversion encoding/json itself applies — is all
// that is left to do; unlike json.Unmarshal it allocates nothing.
func unmarshalNF(data []byte, out *float64) error {
	switch string(data) {
	case `"Inf"`:
		*out = math.Inf(1)
		return nil
	case `"-Inf"`:
		*out = math.Inf(-1)
		return nil
	case `"NaN"`:
		*out = math.NaN()
		return nil
	case `null`:
		return nil
	}
	if len(data) == 0 || (data[0] != '-' && (data[0] < '0' || data[0] > '9')) {
		return fmt.Errorf("gp: snapshot value %s is not a number", data)
	}
	f, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return fmt.Errorf("gp: snapshot value: %w", err)
	}
	*out = f
	return nil
}

// toNFRows and fromNFRows convert a hyperparameter matrix between its fitted
// and wire representations (the rows share backing arrays; nothing copies).
func toNFRows(rows [][]float64) []nfVec {
	out := make([]nfVec, len(rows))
	for i, r := range rows {
		out[i] = nfVec(r)
	}
	return out
}

func fromNFRows(rows []nfVec) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = []float64(r)
	}
	return out
}

// Hyperparameters returns the model's hyperparameters in the optimization
// layout FitOptions.Init expects: log-lengthscales, mixing coefficients,
// log-diagonal boosts, log-noise. Feeding the result of one fit into the
// next fit's Init seeds the first L-BFGS start at the previous optimum.
func (m *LCM) Hyperparameters() []float64 {
	layout := hyperLayout{q: m.Q, dim: m.Dim, tasks: m.NumTasks}
	theta := make([]float64, layout.total())
	for q := 0; q < m.Q; q++ {
		for d := 0; d < m.Dim; d++ {
			theta[layout.lsAt(q, d)] = math.Log(m.Ls[q][d])
		}
		for i := 0; i < m.NumTasks; i++ {
			theta[layout.aAt(q, i)] = m.A[q][i]
			theta[layout.bAt(q, i)] = math.Log(m.B[q][i])
		}
	}
	for i := 0; i < m.NumTasks; i++ {
		theta[layout.dAt(i)] = math.Log(m.D[i])
	}
	return theta
}

// MarshalBinary encodes the fitted model — hyperparameters plus training
// state — into a self-contained snapshot. It works on hyperparameter-only
// models too (one built by UnmarshalBinary from a data-less snapshot);
// such snapshots warm-start fits but cannot predict after reload.
func (m *LCM) MarshalBinary() ([]byte, error) {
	snap := lcmSnapshot{
		Q: m.Q, NumTasks: m.NumTasks, Dim: m.Dim,
		Ls: toNFRows(m.Ls), A: toNFRows(m.A), B: toNFRows(m.B), D: nfVec(m.D),
		LogLik: nfScalar(m.LogLik), Jitter: nfScalar(m.Jitter),
		YMean: nfScalar(m.yMean), YStd: nfScalar(m.yStd),
		TaskOf: m.taskOf, YNorm: nfVec(m.yNorm),
	}
	if len(m.flatX) > 0 {
		snap.X = make(nfVec, 0, len(m.flatX)*m.Dim)
		for _, x := range m.flatX {
			snap.X = append(snap.X, x...)
		}
	}
	return json.Marshal(snap)
}

// checkShape validates a decoded snapshot: dimensions present,
// hyperparameter arrays of those dimensions and, when the snapshot carries
// training state, Dim coordinates and one output for each of its len(TaskOf)
// samples with every task label in range.
func (snap *lcmSnapshot) checkShape() error {
	if snap.Q <= 0 || snap.NumTasks <= 0 || snap.Dim <= 0 {
		return errors.New("gp: LCM snapshot missing dimensions")
	}
	if len(snap.Ls) != snap.Q || len(snap.A) != snap.Q || len(snap.B) != snap.Q || len(snap.D) != snap.NumTasks {
		return errors.New("gp: LCM snapshot hyperparameter shape mismatch")
	}
	for q := 0; q < snap.Q; q++ {
		if len(snap.Ls[q]) != snap.Dim || len(snap.A[q]) != snap.NumTasks || len(snap.B[q]) != snap.NumTasks {
			return errors.New("gp: LCM snapshot hyperparameter shape mismatch")
		}
	}
	n := len(snap.TaskOf)
	if n == 0 {
		return nil // hyperparameter-only snapshot
	}
	if len(snap.X) != n*snap.Dim || len(snap.YNorm) != n {
		return errors.New("gp: LCM snapshot training-state shape mismatch")
	}
	for _, task := range snap.TaskOf {
		if task < 0 || task >= snap.NumTasks {
			return errors.New("gp: LCM snapshot task label out of range")
		}
	}
	return nil
}

// UnmarshalBinary decodes a snapshot produced by MarshalBinary and, when the
// snapshot carries training state, rebuilds the prediction path (covariance
// assembly with the recorded jitter, Cholesky, alpha solve, fast-path
// tables) so Predict/PredictInto work on the reloaded model.
func (m *LCM) UnmarshalBinary(data []byte) error {
	var snap lcmSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("gp: decoding LCM snapshot: %w", err)
	}
	if err := snap.checkShape(); err != nil {
		return err
	}
	*m = LCM{
		Q: snap.Q, NumTasks: snap.NumTasks, Dim: snap.Dim,
		Ls: fromNFRows(snap.Ls), A: fromNFRows(snap.A), B: fromNFRows(snap.B), D: snap.D,
		LogLik: float64(snap.LogLik), Jitter: float64(snap.Jitter),
	}
	m.yMean, m.yStd = float64(snap.YMean), float64(snap.YStd)
	if m.yStd == 0 { //gptlint:ignore float-eq zero is the unset sentinel for a hyperparameter-only snapshot
		m.yStd = 1
	}
	n := len(snap.TaskOf)
	if n == 0 {
		return nil // hyperparameter-only snapshot: warm starts, no prediction
	}
	m.flatX = make([][]float64, n)
	for r := 0; r < n; r++ {
		m.flatX[r] = snap.X[r*snap.Dim : (r+1)*snap.Dim]
	}
	m.taskOf = snap.TaskOf
	m.yNorm = snap.YNorm
	// The recorded jitter made this matrix factorizable at save time and the
	// floats round-trip exactly; factorize covers the (theoretical) residual
	// escalation without changing the common path.
	layout := hyperLayout{q: m.Q, dim: m.Dim, tasks: m.NumTasks}
	if err := m.factorize(newLCMEngine(newPairCache(m.flatX, m.Dim), layout, m.taskOf, m.yNorm, 1)); err != nil {
		return fmt.Errorf("gp: refactorizing LCM snapshot: %w", err)
	}
	return nil
}
