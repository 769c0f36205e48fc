package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/gptune/api"
	_ "repro/internal/bench/all"
	"repro/internal/core"
)

// TestServeSpecRoundTrip checks the spec survives its JSON persistence
// bitwise (tasks are float64s; the spec on disk rebuilds the engine).
func TestServeSpecRoundTrip(t *testing.T) {
	spec := api.StudySpec{
		Name:       "rt",
		TaskParams: []api.ParamSpec{{Name: "t", Kind: "real", Lo: 0, Hi: 10}},
		Tuning:     []api.ParamSpec{{Name: "x", Kind: "real", Lo: 0, Hi: 1}},
		Outputs:    []string{"y"},
		Tasks:      [][]float64{{math.Pi}, {math.Nextafter(1, 2)}},
		Options:    api.OptionsSpec{EpsTot: 6, Seed: 99, Workers: 1},
	}
	data, err := api.EncodeSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var back api.StudySpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range spec.Tasks {
		if math.Float64bits(back.Tasks[i][0]) != math.Float64bits(spec.Tasks[i][0]) {
			t.Fatalf("task %d did not round-trip bitwise: %v vs %v", i, back.Tasks[i][0], spec.Tasks[i][0])
		}
	}
	if _, _, _, err := buildSpec(&back); err != nil {
		t.Fatalf("round-tripped spec no longer builds: %v", err)
	}
}

// FuzzBuildSpec drives the create path short of the disk — bytes → api.Decode
// → buildSpec → core.NewEngine — seeded with the create bodies of
// testdata/wire.golden. Nothing panics; a spec whose options the engine's own
// validator refuses is refused, whatever else it holds; and NewEngine accepts
// every spec buildSpec accepts, so a create answered 201 never fails to open.
func FuzzBuildSpec(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wire.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if body, ok := strings.CutPrefix(line, "> "+api.RouteCreate+" "); ok {
			f.Add([]byte(body))
		}
	}
	f.Add([]byte(`{"name":"a","tuning":[{"name":"x","kind":"real","hi":1}],"outputs":["y1","y2"],"tasks":[[1]],"options":{"acquisition":"pi"}}`))
	f.Add([]byte(`{"name":"g","scenario":"gemm","tasks":[[1024,1024,1024]],"options":{"acquisition":"lcb","mo_pop_size":1000}}`))
	f.Add([]byte(`{"name":"m","scenario":"analytical","tasks":[[0.5],[],[1,2]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec api.StudySpec
		if api.Decode(bytes.NewReader(data), &spec) != nil {
			return
		}
		prob, tasks, opts, err := buildSpec(&spec)
		// On one objective every known acquisition is allowed, so Validate
		// refuses only what it refuses on any problem: an unknown
		// acquisition or a budget past its ceiling.
		asked := specOptions(spec.Options)
		if refused := asked.Validate(1); refused != nil && err == nil {
			t.Fatalf("buildSpec accepts options the engine refuses (%v)\n%s", refused, data)
		}
		if err != nil {
			return
		}
		if _, err := core.NewEngine(prob, tasks, opts); err != nil {
			t.Fatalf("buildSpec accepts a spec NewEngine refuses: %v\n%s", err, data)
		}
	})
}
