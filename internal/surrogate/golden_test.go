package surrogate

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
)

// TestPerTaskSnapshotGolden pins the MarshalBinary bytes of every per-task
// backend on one small fixed fit. A snapshot is the resume and transfer
// format, so a refactor of the per-task plumbing must leave every byte
// where it was. The GP fits follow math.Exp's body, so those carry one
// recording per body amd64 runs, told apart by one argument the fused and
// the unfused exp_amd64.s round differently; forests never call it.
func TestPerTaskSnapshotGolden(t *testing.T) {
	body, known := map[uint64]int{
		0x3fea876812c0877b: 0, // FMA
		0x3fea876812c0877c: 1, // no FMA (GODEBUG=cpu.fma=off)
	}[math.Float64bits(math.Exp(-0.1875))]
	want := map[string][2]string{
		KindGPIndep: {"647db9899d48be8e", "3438a21d97364ad8"},
		KindSGP:     {"b9dc2486530c6ee7", "fa9e0a35ba03a095"},
		KindRF:      {"098f43e0f234bc18", "098f43e0f234bc18"},
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
		if !known {
			t.Logf("%s: snapshot %s (math.Exp runs a body no recording was made under)", kind, got)
			continue
		}
		if got != want[kind][body] {
			t.Errorf("%s: snapshot hash %s, recorded %s (%d bytes)", kind, got, want[kind][body], len(blob))
		}
	}
}
