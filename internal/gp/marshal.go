// Portable serialization of fitted LCM models. A snapshot is the model's
// hyperparameters and nothing else: its one reader is a later fit's warm
// start, which DecodeHyperparameters hands the vector FitOptions.Init
// takes, so a snapshot's size depends on Q, δ and the dimension, never on
// how many samples the model was fitted on. Nothing is ever rebuilt from a
// snapshot. Older snapshots also carried the training state (the "loglik",
// "jitter", "y_mean", "y_std", "x", "task_of" and "y_norm" fields);
// encoding/json skips fields the wire form does not name, so they decode to
// the same hyperparameters whatever that state holds. Floats survive the
// JSON round-trip exactly (encoding/json emits shortest round-trippable
// literals), so a decoded vector is bit for bit the saved model's
// Hyperparameters.
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
	Q        int     `json:"q"`
	NumTasks int     `json:"num_tasks"`
	Dim      int     `json:"dim"`
	Ls       []nfVec `json:"ls"`
	A        []nfVec `json:"a"`
	B        []nfVec `json:"b"`
	D        nfVec   `json:"d"`
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

// NFVec exposes the non-finite-safe vector wire type to other packages'
// snapshot formats (the surrogate package's sparse-GP backend serializes
// hyperparameters with the same Inf/NaN hazards).
type NFVec = nfVec

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

// toNFRows views a hyperparameter matrix in its wire representation (the
// rows share backing arrays; nothing copies).
func toNFRows(rows [][]float64) []nfVec {
	out := make([]nfVec, len(rows))
	for i, r := range rows {
		out[i] = nfVec(r)
	}
	return out
}

// snapshot is the model's wire form, over the model's own slices.
func (m *LCM) snapshot() *lcmSnapshot {
	return &lcmSnapshot{
		Q: m.Q, NumTasks: m.NumTasks, Dim: m.Dim,
		Ls: toNFRows(m.Ls), A: toNFRows(m.A), B: toNFRows(m.B), D: nfVec(m.D),
	}
}

// Hyperparameters returns the model's hyperparameters in the optimization
// layout FitOptions.Init expects: log-lengthscales, mixing coefficients,
// log-diagonal boosts, log-noise. Feeding the result of one fit into the
// next fit's Init seeds the first L-BFGS start at the previous optimum.
func (m *LCM) Hyperparameters() []float64 { return m.snapshot().theta() }

// theta is the one computation of the hyperparameter vector, shared by a
// fitted model's Hyperparameters and DecodeHyperparameters, so a decoded
// snapshot hands a fit the saved model's bits.
func (snap *lcmSnapshot) theta() []float64 {
	layout := hyperLayout{q: snap.Q, dim: snap.Dim, tasks: snap.NumTasks}
	theta := make([]float64, layout.total())
	for q := 0; q < snap.Q; q++ {
		for d := 0; d < snap.Dim; d++ {
			theta[layout.lsAt(q, d)] = math.Log(snap.Ls[q][d])
		}
		for i := 0; i < snap.NumTasks; i++ {
			theta[layout.aAt(q, i)] = snap.A[q][i]
			theta[layout.bAt(q, i)] = math.Log(snap.B[q][i])
		}
	}
	for i := 0; i < snap.NumTasks; i++ {
		theta[layout.dAt(i)] = math.Log(snap.D[i])
	}
	return theta
}

// MarshalBinary encodes the model's hyperparameters into a self-contained
// snapshot, the same few hundred bytes whether the model holds ten samples
// or a thousand.
func (m *LCM) MarshalBinary() ([]byte, error) { return json.Marshal(m.snapshot()) }

// checkShape validates a decoded snapshot: dimensions present and
// hyperparameter arrays of those dimensions.
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
	return nil
}

// DecodeHyperparameters reads a snapshot produced by MarshalBinary, or by a
// build whose snapshots still carried the training state, and returns the
// saved model's Hyperparameters, bit for bit — the vector a later fit's
// FitOptions.Init takes — and its task count, which the vector's length
// alone does not fix (Q = 1, δ = 2, dim = 1 has Q = 1, δ = 1, dim = 4's).
func DecodeHyperparameters(data []byte) (theta []float64, tasks int, err error) {
	var snap lcmSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, 0, fmt.Errorf("gp: decoding LCM snapshot: %w", err)
	}
	if err := snap.checkShape(); err != nil {
		return nil, 0, err
	}
	return snap.theta(), snap.NumTasks, nil
}
