package surrogate

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestPerTaskSnapshotGolden pins the MarshalBinary bytes of every per-task
// backend on one small fixed fit. A snapshot is the resume and transfer
// format, so a refactor of the per-task plumbing must leave every byte
// where it was. Re-recorded when the fits' streams (per-task seeds, gp
// starts, sgp's inducing set, rf's trees) moved to internal/rng: the
// encodings are unchanged, the fitted values are new draws.
func TestPerTaskSnapshotGolden(t *testing.T) {
	want := map[string]string{
		KindGPIndep: "6a794ba000ed9446",
		KindSGP:     "07949f430a5d3663",
		KindRF:      "de2c84188c2d1208",
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
