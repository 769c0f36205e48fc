package gp

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func fitSmall(t *testing.T, opts FitOptions) (*Dataset, *LCM) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	data := syntheticDataset(rng, 2, 12, 2, 0.05)
	m, err := FitLCM(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	return data, m
}

// TestMarshalRoundTripPredictsIdentically is the portability contract: a
// model saved with MarshalBinary and reloaded with UnmarshalBinary must
// reproduce the original's posterior bitwise — hyperparameters, jitter, and
// the full prediction path all survive the snapshot.
func TestMarshalRoundTripPredictsIdentically(t *testing.T) {
	_, m := fitSmall(t, FitOptions{NumStarts: 2, MaxIter: 30, Seed: 3})

	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back LCM
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Q != m.Q || back.NumTasks != m.NumTasks || back.Dim != m.Dim {
		t.Fatalf("dimensions differ after round trip: %+v vs %+v", back, m)
	}
	if math.Float64bits(back.Jitter) != math.Float64bits(m.Jitter) {
		t.Fatalf("jitter differs: %v vs %v", back.Jitter, m.Jitter)
	}
	rng := rand.New(rand.NewSource(11))
	wsA, wsB := m.NewPredictWorkspace(), back.NewPredictWorkspace()
	for k := 0; k < 50; k++ {
		x := []float64{rng.Float64(), rng.Float64()}
		task := k % m.NumTasks
		muA, vA := m.PredictInto(wsA, task, x)
		muB, vB := back.PredictInto(wsB, task, x)
		if math.Float64bits(muA) != math.Float64bits(muB) || math.Float64bits(vA) != math.Float64bits(vB) {
			t.Fatalf("prediction diverged at %v task %d: (%v,%v) vs (%v,%v)", x, task, muA, vA, muB, vB)
		}
	}
}

// TestHyperparametersRoundTrip checks the theta extraction inverts the fit's
// decoding: thetaToModel(m.Hyperparameters()) reproduces the model's
// hyperparameters up to the exp∘log round trip.
func TestHyperparametersRoundTrip(t *testing.T) {
	_, m := fitSmall(t, FitOptions{NumStarts: 1, MaxIter: 20, Seed: 5})
	back := thetaToModel(m.Hyperparameters(), hyperLayout{q: m.Q, dim: m.Dim, tasks: m.NumTasks})
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)) }
	for q := 0; q < m.Q; q++ {
		for d := 0; d < m.Dim; d++ {
			if !close(back.Ls[q][d], m.Ls[q][d]) {
				t.Fatalf("Ls[%d][%d]: %v vs %v", q, d, back.Ls[q][d], m.Ls[q][d])
			}
		}
		for i := 0; i < m.NumTasks; i++ {
			if !close(back.A[q][i], m.A[q][i]) || !close(back.B[q][i], m.B[q][i]) {
				t.Fatalf("A/B[%d][%d] differ after round trip", q, i)
			}
		}
	}
	for i := 0; i < m.NumTasks; i++ {
		if !close(back.D[i], m.D[i]) {
			t.Fatalf("D[%d]: %v vs %v", i, back.D[i], m.D[i])
		}
	}
}

// TestFitWarmStartUsesInit proves FitOptions.Init actually seeds the first
// L-BFGS start: with a single start and a tight iteration budget, a fit
// seeded at a previous optimum lands elsewhere than the cold fit, while two
// identically warm-started fits agree bitwise. A length-mismatched Init must
// be ignored (cold fit reproduced exactly).
func TestFitWarmStartUsesInit(t *testing.T) {
	data, prev := fitSmall(t, FitOptions{NumStarts: 2, MaxIter: 40, Seed: 9})
	theta := prev.Hyperparameters()

	short := FitOptions{NumStarts: 1, MaxIter: 2, Seed: 1}
	cold, err := FitLCM(data, short)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := short
	warmOpts.Init = theta
	warm, err := FitLCM(data, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := FitLCM(data, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(warm.LogLik) != math.Float64bits(warm2.LogLik) {
		t.Fatalf("warm-started fit is not deterministic: %v vs %v", warm.LogLik, warm2.LogLik)
	}
	if math.Float64bits(warm.Ls[0][0]) == math.Float64bits(cold.Ls[0][0]) &&
		math.Float64bits(warm.LogLik) == math.Float64bits(cold.LogLik) {
		t.Fatalf("warm start had no effect: both fits at Ls=%v loglik=%v", cold.Ls[0][0], cold.LogLik)
	}

	badOpts := short
	badOpts.Init = theta[:len(theta)-1]
	ignored, err := FitLCM(data, badOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ignored.LogLik) != math.Float64bits(cold.LogLik) {
		t.Fatalf("mismatched Init not ignored: loglik %v vs cold %v", ignored.LogLik, cold.LogLik)
	}
}

// TestMarshalSurvivesNonFiniteHyperparameters: the optimizer can drive a
// log-lengthscale past exp's range, leaving +Inf in a fitted model, and a
// degenerate fit can record a -Inf log-likelihood. The snapshot must encode
// these (encoding/json rejects bare non-finite numbers) and reproduce them
// bitwise on reload.
func TestMarshalSurvivesNonFiniteHyperparameters(t *testing.T) {
	// Full model with an infinite lengthscale (that dimension stopped
	// mattering; Σ stays finite, so the prediction path still rebuilds).
	_, m := fitSmall(t, FitOptions{NumStarts: 1, MaxIter: 10, Seed: 3})
	m.Ls[0][1] = math.Inf(1)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal with infinite lengthscale: %v", err)
	}
	var back LCM
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(back.Ls[0][1], 1) {
		t.Fatalf("infinite lengthscale did not round-trip: %v", back.Ls[0][1])
	}
	if math.Float64bits(back.Ls[0][0]) != math.Float64bits(m.Ls[0][0]) {
		t.Fatalf("finite Ls[0][0] no longer bitwise: %v vs %v", back.Ls[0][0], m.Ls[0][0])
	}

	// Hyperparameter-only snapshot (the warm-start transfer form) with every
	// flavor of non-finite value.
	m.flatX, m.taskOf, m.yNorm = nil, nil, nil
	m.B[0][0] = math.Inf(1)
	m.A[1][0] = math.Inf(-1)
	m.LogLik = math.Inf(-1)
	m.D[0] = math.NaN()
	blob, err = m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal with non-finite hyperparameters: %v", err)
	}
	var hyper LCM
	if err := hyper.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(hyper.B[0][0], 1) || !math.IsInf(hyper.A[1][0], -1) ||
		!math.IsInf(hyper.LogLik, -1) || !math.IsNaN(hyper.D[0]) {
		t.Fatalf("non-finite values did not round-trip: B=%v A=%v loglik=%v D=%v",
			hyper.B[0][0], hyper.A[1][0], hyper.LogLik, hyper.D[0])
	}
}

// TestUnmarshalRejectsCorruptSnapshots exercises the validation paths.
func TestUnmarshalRejectsCorruptSnapshots(t *testing.T) {
	var m LCM
	for _, bad := range []string{
		"not json",
		`{}`,
		`{"q":1,"num_tasks":1,"dim":1}`, // missing hyperparameters
		`{"q":1,"num_tasks":1,"dim":1,"ls":[[1]],"a":[[1]],"b":[[1]],"d":[1],"task_of":[0],"x":[],"y_norm":[1]}`,    // X length mismatch
		`{"q":1,"num_tasks":1,"dim":1,"ls":[[1]],"a":[[1]],"b":[[1]],"d":[1],"task_of":[5],"x":[0.5],"y_norm":[1]}`, // task out of range
	} {
		if err := m.UnmarshalBinary([]byte(bad)); err == nil {
			t.Errorf("snapshot %q accepted", bad)
		}
	}
	for _, bad := range []string{`"abc"`, `true`, `[1]`, `1e999`} {
		snap := `{"q":1,"num_tasks":1,"dim":1,"ls":[[1]],"a":[[1]],"b":[[1]],"d":[1],"task_of":[0],"x":[` + bad + `],"y_norm":[1]}`
		if err := m.UnmarshalBinary([]byte(snap)); err == nil {
			t.Errorf("coordinate %s accepted", bad)
		}
	}
}

// TestUnmarshalNFIsTheJSONFloatRule: for every kind of JSON value a snapshot
// element can be, unmarshalNF accepts what decoding into a float64 with
// encoding/json accepts, with the same bits, plus the three non-finite
// strings — alone and as an nfVec element.
func TestUnmarshalNFIsTheJSONFloatRule(t *testing.T) {
	for _, elem := range []string{
		`0`, `-0`, `1`, `-1.5`, `0.1`, `1e5`, `1E+5`, `2.5e-3`, `4.9e-324`, `1e-400`, `-1e-400`,
		`1.7976931348623157e308`, `1e309`, `-1e309`, `123456789012345678901234567890`,
		`0.30000000000000004`, `null`, `true`, `false`, `"abc"`, `"1"`, `"inf"`, `""`, `{}`, `[]`, `[1]`, `{"a":1}`,
	} {
		var want float64
		wantErr := json.Unmarshal([]byte(elem), &want)
		var got float64
		err := unmarshalNF([]byte(elem), &got)
		if (err == nil) != (wantErr == nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("unmarshalNF(%s) = %v, %v; encoding/json %v, %v", elem, got, err, want, wantErr)
		}
		array := []byte(`[0.5, ` + elem + `,"-Inf"]`)
		var vec nfVec
		if vecErr := json.Unmarshal(array, &vec); (vecErr == nil) != (wantErr == nil) {
			t.Errorf("%s: nfVec error %v, element error %v", array, vecErr, wantErr)
		}
		if wantErr == nil && (len(vec) != 3 || math.Float64bits(vec[1]) != math.Float64bits(want)) {
			t.Errorf("%s: nfVec %v, want 3 elements with %v in the middle", array, vec, want)
		}
	}
	for elem, want := range map[string]float64{`"Inf"`: math.Inf(1), `"-Inf"`: math.Inf(-1), `"NaN"`: math.NaN()} {
		var got float64
		if err := unmarshalNF([]byte(elem), &got); err != nil || !sameBits(got, want) {
			t.Errorf("unmarshalNF(%s) = %v, %v", elem, got, err)
		}
	}
}

// TestHyperparametersSurviveSnapshot: a warm start reads Hyperparameters off
// a model, and a model restored from a snapshot must hand a fit the bits the
// model that was saved would have — for a fitted model, an appended one, a
// hyperparameter-only one and one with non-finite entries.
func TestHyperparametersSurviveSnapshot(t *testing.T) {
	check := func(name string, model *LCM) {
		t.Helper()
		blob, err := model.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back LCM
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, got := model.Hyperparameters(), back.Hyperparameters()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hyperparameters restored, %d saved", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: theta[%d] = %v restored, %v saved", name, i, got[i], want[i])
			}
		}
	}
	_, m := fitSmall(t, FitOptions{NumStarts: 1, MaxIter: 5, Seed: 2})
	check("fitted", m)
	if err := m.AppendObservations([][]float64{{0.1, 0.9}}, []int{1}, []float64{0.3}, 1); err != nil {
		t.Fatal(err)
	}
	check("appended", m)
	hyperOnly := &LCM{Q: m.Q, NumTasks: m.NumTasks, Dim: m.Dim, Ls: m.Ls, A: m.A, B: m.B, D: m.D}
	check("hyperparameter-only", hyperOnly)
	hyperOnly.Ls[0][1], hyperOnly.B[0][0] = math.Inf(1), 0
	check("non-finite", hyperOnly)
}
