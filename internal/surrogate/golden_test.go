package surrogate

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestPerTaskSnapshotGolden pins the MarshalBinary bytes of every per-task
// backend on one small fixed fit. A snapshot is the transfer format — a
// later session's warm start reads it; resuming a run reads evaluation
// records, never snapshots — so a refactor of the per-task plumbing must
// leave every byte where it was. Re-recorded when the fits' streams
// (per-task seeds, gp starts, sgp's inducing set, rf's trees) moved to
// internal/rng: the encodings were unchanged, the fitted values new draws.
// Re-recorded for gp-indep and sgp when a GP snapshot became its
// hyperparameters alone: the fits are unchanged, the encodings lost the
// training state; the rf hash did not move. Re-recorded for rf alone when a
// forest's snapshot became empty (nothing reads one): the gp-indep and sgp
// hashes did not move.
func TestPerTaskSnapshotGolden(t *testing.T) {
	want := map[string]string{
		KindGPIndep: "f565fe50e0eead04",
		KindSGP:     "f2297df03b75a440",
		KindRF:      "9e517a9134b4275e",
	}
	data := testDataset(33, 3, 9)
	for _, kind := range []string{KindGPIndep, KindSGP, KindRF} {
		f, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 12, Seed: 4, Inducing: 6})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sum := sha256.Sum256(blob)
		got := hex.EncodeToString(sum[:8])
		if got != want[kind] {
			t.Errorf("%s: snapshot hash %s, recorded %s (%d bytes)", kind, got, want[kind], len(blob))
		}
	}
}

// TestPosteriorGolden pins the posterior bits of every backend: one small
// fixed fit per kind, PredictBatchInto over seven fixed points (a group of
// four and a remainder of three, one of them a training point) for every
// task, and, for the backends that extend in place, the same again after an
// Append. The snapshot golden above pins what a later session reads; this
// one pins what the search reads, so a refactor of the prediction path must
// leave every hash where it was.
func TestPosteriorGolden(t *testing.T) {
	want := map[string][2]string{ // kind: {fitted, appended}
		KindLCM:     {"90c4629431957ee5", "9179c7e349501476"},
		KindGPIndep: {"fe1a54740e8be32e", "942b05a10e95b717"},
		KindSGP:     {"30c55f20fb516534", "4066024c574303bd"},
		KindRF:      {"2bea9eb56076ed41", ""},
	}
	data := testDataset(33, 3, 9)
	extra := testDataset(35, 3, 2)
	pts := [][]float64{{0.1, 0.2}, {0.5, 0.5}, data.X[0][3], {0.9, 0.05}, {0.33, 0.77}, {0, 1}, {0.62, 0.41}}
	for _, kind := range []string{KindLCM, KindGPIndep, KindSGP, KindRF} {
		f, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		m, err := f.Fit(data, FitOptions{NumStarts: 2, MaxIter: 12, Seed: 4, Inducing: 6})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		got := [2]string{posteriorHash(m, data.NumTasks(), pts), ""}
		if inc, ok := m.(Incremental); ok {
			if err := inc.Append(extra, 1); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			got[1] = posteriorHash(m, data.NumTasks(), pts)
		}
		if got != want[kind] {
			t.Errorf("%s: posterior hashes %q, recorded %q", kind, got, want[kind])
		}
	}
}

// posteriorHash is a short digest of m's PredictBatchInto bits at pts, task
// by task over its tasks.
func posteriorHash(m Model, tasks int, pts [][]float64) string {
	ws := m.NewWorkspace()
	mean, variance := make([]float64, len(pts)), make([]float64, len(pts))
	h := sha256.New()
	for task := 0; task < tasks; task++ {
		m.PredictBatchInto(ws, task, pts, mean, variance)
		for j := range pts {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(mean[j])))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(variance[j])))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
