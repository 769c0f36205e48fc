package serve

import (
	"encoding/json"
	"math"
	"testing"

	"repro/gptune/api"
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
