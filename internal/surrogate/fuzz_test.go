package surrogate

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSurrogateUnmarshal attacks every backend's snapshot decoder with
// arbitrary bytes: whatever they are, UnmarshalBinary refuses them with an
// error or returns a model of its own kind whose NewWorkspace does not
// panic. The seeds are each backend's snapshot of a small fit, the
// regressions below, and full lcm, gp-indep and sgp snapshots of that fit —
// carrying the training state, as earlier builds wrote them
// (testdata/full_snapshot_*.json) — which must still restore; plain
// `go test` runs them.
func FuzzSurrogateUnmarshal(f *testing.F) {
	// Snapshots without training state decode to models that cannot
	// predict, and NewWorkspace panicked on them, for lcm and for every
	// gp-indep task.
	hyperOnly := `{"q":1,"num_tasks":1,"dim":2,"ls":[[0.5,"Inf"]],"a":[[1]],"b":[[0.1]],"d":[0.01]}`
	f.Add([]byte(hyperOnly))
	f.Add([]byte(`{"kind":"gp-indep","models":[` + hyperOnly + `,` + hyperOnly + `]}`))

	// A per-task container with no models has no task to route to.
	for _, kind := range []string{KindGPIndep, KindSGP, KindRF} {
		empty := []byte(`{"kind":"` + kind + `","models":[]}`)
		f.Add(empty)
		fitter, err := New(kind)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := fitter.UnmarshalBinary(empty); err == nil {
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
		fitter, err := New(kind)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := fitter.UnmarshalBinary(blob); err != nil {
			f.Fatalf("%s refused its snapshot with training state: %v", kind, err)
		}
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, kind := range Kinds() {
			fitter, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			m, err := fitter.UnmarshalBinary(blob)
			if err != nil {
				continue
			}
			if m.Kind() != kind {
				t.Fatalf("%s decoder returned a %s model", kind, m.Kind())
			}
			m.NewWorkspace()
		}
	})
}
