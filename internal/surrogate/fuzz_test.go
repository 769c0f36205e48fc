package surrogate

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSurrogateUnmarshal attacks WarmStart, every backend's snapshot
// decoder, with arbitrary bytes: whatever they are, it refuses them with an
// error or returns at least one non-empty vector — exactly one for lcm —
// and it decodes nothing for a backend whose fit reads no warm start. The
// seeds are each backend's snapshot of a small fit, the regressions below,
// and full lcm, gp-indep and sgp snapshots of that fit — carrying the
// training state, as earlier builds wrote them
// (testdata/full_snapshot_*.json) — which must still decode; plain
// `go test` runs them.
func FuzzSurrogateUnmarshal(f *testing.F) {
	// Snapshots without training state once decoded to models whose
	// NewWorkspace panicked, for lcm and for every gp-indep task.
	hyperOnly := `{"q":1,"num_tasks":1,"dim":2,"ls":[[0.5,"Inf"]],"a":[[1]],"b":[[0.1]],"d":[0.01]}`
	f.Add([]byte(hyperOnly))
	f.Add([]byte(`{"kind":"gp-indep","models":[` + hyperOnly + `,` + hyperOnly + `]}`))

	// A per-task container with no models has no task to warm-start.
	for _, kind := range []string{KindGPIndep, KindSGP, KindRF} {
		empty := []byte(`{"kind":"` + kind + `","models":[]}`)
		f.Add(empty)
		if _, err := WarmStart(kind, empty); err == nil {
			f.Fatalf("%s accepted a snapshot with zero per-task models", kind)
		}
	}

	data := testDataset(31, 2, 6)
	for _, kind := range Kinds() {
		fitter, err := New(kind)
		if err != nil {
			f.Fatal(err)
		}
		m, err := fitter.Fit(data, FitOptions{NumStarts: 1, MaxIter: 3, Seed: 1, Inducing: 4})
		if err != nil {
			f.Fatalf("%s: %v", kind, err)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			f.Fatalf("%s: %v", kind, err)
		}
		f.Add(blob)
	}

	for _, kind := range []string{KindLCM, KindGPIndep, KindSGP} {
		blob, err := os.ReadFile(filepath.Join("testdata", "full_snapshot_"+kind+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		if _, err := WarmStart(kind, blob); err != nil {
			f.Fatalf("%s refused its snapshot with training state: %v", kind, err)
		}
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, kind := range Kinds() {
			warm, err := WarmStart(kind, blob)
			if err != nil {
				continue
			}
			if !ReadsWarmStart(kind) {
				t.Fatalf("%s decoded a warm start its fit does not read", kind)
			}
			if len(warm) == 0 || kind == KindLCM && len(warm) != 1 {
				t.Fatalf("%s decoded %d vectors", kind, len(warm))
			}
			for i, theta := range warm {
				if len(theta) == 0 {
					t.Fatalf("%s decoded an empty vector for task %d", kind, i)
				}
			}
		}
	})
}
