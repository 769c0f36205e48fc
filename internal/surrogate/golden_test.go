package surrogate

import (
	"crypto/sha256"
	"encoding/hex"
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
