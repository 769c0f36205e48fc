package gp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// refactorOnFreshEngine returns a model holding m's hyperparameters,
// training state, output standardization and jitter, factored by factorize
// on an engine of its own — the post-fit step FitLCM runs on race engine 0,
// repeated where no fit has touched the engine.
func refactorOnFreshEngine(t *testing.T, m *LCM) *LCM {
	t.Helper()
	fresh := &LCM{
		Q: m.Q, NumTasks: m.NumTasks, Dim: m.Dim,
		Ls: m.Ls, A: m.A, B: m.B, D: m.D, Jitter: m.Jitter,
		flatX: m.flatX, taskOf: m.taskOf, yNorm: m.yNorm, yMean: m.yMean, yStd: m.yStd,
	}
	layout := hyperLayout{q: fresh.Q, dim: fresh.Dim, tasks: fresh.NumTasks}
	if err := fresh.factorize(newLCMEngine(newPairCache(fresh.flatX, fresh.Dim), layout, fresh.taskOf, fresh.yNorm, 1)); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestMarshalRoundTripPredictsIdentically: a snapshot carries every bit of
// the hyperparameters the posterior depends on — it decodes to the model's
// own Hyperparameters — and FitLCM's post-fit factorization on race engine
// 0 is the one a fresh engine computes, so those hyperparameters over the
// fit's training state, factored afresh, reproduce the fitted model's
// posterior and jitter bitwise.
func TestMarshalRoundTripPredictsIdentically(t *testing.T) {
	_, m := fitSmall(t, FitOptions{NumStarts: 2, MaxIter: 30, Seed: 3})

	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	theta, _, err := DecodeHyperparameters(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Hyperparameters()
	if len(theta) != len(want) {
		t.Fatalf("snapshot decodes to %d hyperparameters, the model has %d", len(theta), len(want))
	}
	for i := range want {
		if math.Float64bits(theta[i]) != math.Float64bits(want[i]) {
			t.Fatalf("theta[%d] = %v decoded, %v saved", i, theta[i], want[i])
		}
	}
	back := refactorOnFreshEngine(t, m)
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

// TestSnapshotSizeIndependentOfN: a snapshot holds the hyperparameters
// alone, so two fits of the same Q, δ and dimension — one on ten samples a
// task, one on a hundred — encode to the same bytes up to the digits of
// their numbers: with every number literal masked, the blobs have equal
// length.
func TestSnapshotSizeIndependentOfN(t *testing.T) {
	number := regexp.MustCompile(`-?[0-9][0-9.eE+-]*`)
	var lengths []int
	for _, perTask := range []int{10, 100} {
		data := syntheticDataset(rand.New(rand.NewSource(4)), 2, perTask, 2, 0.05)
		m, err := FitLCM(data, FitOptions{Q: 2, NumStarts: 1, MaxIter: 5, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		lengths = append(lengths, len(number.ReplaceAll(blob, []byte("0"))))
	}
	if lengths[0] != lengths[1] {
		t.Fatalf("masked snapshot of n = 20 is %d bytes, of n = 200 %d bytes", lengths[0], lengths[1])
	}
}

// TestFullSnapshotWithBrokenStateWarmStarts: a full snapshot — one that
// also carries the training state, as logs written by earlier builds hold —
// decodes to its hyperparameters even when that state does not factor.
// testdata holds such a snapshot of a small fit, as an earlier build wrote
// it, and a copy whose first training coordinate is NaN, which that build
// refused (the covariance is not positive definite), so a warm start from
// it fell back to a cold one. Both decode to the 14 values whose bits hash
// to what the last build that restored a snapshot into a model read off the
// clean one with Hyperparameters.
func TestFullSnapshotWithBrokenStateWarmStarts(t *testing.T) {
	for _, name := range []string{"full_lcm_snapshot.json", "full_lcm_snapshot_nan_x.json"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		theta, _, err := DecodeHyperparameters(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		for _, v := range theta {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if got := hex.EncodeToString(h.Sum(nil)[:8]); len(theta) != 14 || got != "1a843adffcc13921" {
			t.Errorf("%s: %d hyperparameters hashing to %s, want 14 hashing to 1a843adffcc13921", name, len(theta), got)
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
// log-lengthscale past exp's range, leaving +Inf in a fitted model. The
// snapshot must encode every flavor of non-finite value (encoding/json
// rejects bare non-finite numbers) and decode it, and the finite values
// bitwise, into the hyperparameter vector.
func TestMarshalSurvivesNonFiniteHyperparameters(t *testing.T) {
	_, m := fitSmall(t, FitOptions{NumStarts: 1, MaxIter: 10, Seed: 3})
	m.Ls[0][1] = math.Inf(1)
	m.B[0][0] = math.Inf(1)
	m.A[1][0] = math.Inf(-1)
	m.D[0] = math.NaN()
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal with non-finite hyperparameters: %v", err)
	}
	theta, _, err := DecodeHyperparameters(blob)
	if err != nil {
		t.Fatal(err)
	}
	layout := hyperLayout{q: m.Q, dim: m.Dim, tasks: m.NumTasks}
	if !math.IsInf(theta[layout.lsAt(0, 1)], 1) || !math.IsInf(theta[layout.bAt(0, 0)], 1) ||
		!math.IsInf(theta[layout.aAt(1, 0)], -1) || !math.IsNaN(theta[layout.dAt(0)]) {
		t.Fatalf("non-finite values did not round-trip: %v", theta)
	}
	if want := math.Log(m.Ls[0][0]); math.Float64bits(theta[layout.lsAt(0, 0)]) != math.Float64bits(want) {
		t.Fatalf("finite log Ls[0][0] no longer bitwise: %v vs %v", theta[layout.lsAt(0, 0)], want)
	}
}

// TestUnmarshalRejectsCorruptSnapshots exercises DecodeHyperparameters'
// validation paths.
func TestUnmarshalRejectsCorruptSnapshots(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{}`,
		`{"q":1,"num_tasks":1,"dim":1}`, // missing hyperparameters
		`{"q":1,"num_tasks":1,"dim":2,"ls":[[1]],"a":[[1]],"b":[[1]],"d":[1]}`,         // ls shorter than dim
		`{"q":1,"num_tasks":2,"dim":1,"ls":[[1]],"a":[[1,1]],"b":[[1,1]],"d":[1]}`,     // d shorter than num_tasks
		`{"q":2,"num_tasks":1,"dim":1,"ls":[[1],[1]],"a":[[1]],"b":[[1],[1]],"d":[1]}`, // a shorter than q
	} {
		if _, _, err := DecodeHyperparameters([]byte(bad)); err == nil {
			t.Errorf("snapshot %q accepted", bad)
		}
	}
	for _, bad := range []string{`"abc"`, `true`, `[1]`, `1e999`} {
		snap := `{"q":1,"num_tasks":1,"dim":1,"ls":[[` + bad + `]],"a":[[1]],"b":[[1]],"d":[1]}`
		if _, _, err := DecodeHyperparameters([]byte(snap)); err == nil {
			t.Errorf("lengthscale %s accepted", bad)
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

// FuzzUnmarshalNF: for any input, decoding it as a snapshot float (nfScalar,
// whose UnmarshalJSON is unmarshalNF) accepts exactly what decoding it into a
// float64 with encoding/json accepts, with the same bits — except the three
// non-finite strings, which only the snapshot form accepts. encoding/json
// scans the input first, as it does for every snapshot element, so
// unmarshalNF sees one well-formed value without its surrounding space. Run it
// with go test ./internal/gp -run '^$' -fuzz FuzzUnmarshalNF -fuzztime 60s.
func FuzzUnmarshalNF(f *testing.F) {
	for _, seed := range []string{
		`0`, `-0`, `1.5e-3`, `4.9e-324`, `1e-400`, `1e309`, `-1e309`, `0x1p3`, `1_0`, `+1`, `.5`, `01`,
		`-Inf`, `NaN`, `"Inf"`, ` "-Inf" `, `"NaN"`, `"inf"`, `"Inf"`, `null`, ` null`, `true`, `[1]`, `{}`, ``,
	} {
		f.Add(seed)
	}
	nonFinite := map[string]float64{`"Inf"`: math.Inf(1), `"-Inf"`: math.Inf(-1), `"NaN"`: math.NaN()}
	f.Fuzz(func(t *testing.T, lit string) {
		var want float64
		wantErr := json.Unmarshal([]byte(lit), &want)
		var got nfScalar
		err := json.Unmarshal([]byte(lit), &got)
		if nf, ok := nonFinite[strings.Trim(lit, " \t\n\r")]; ok {
			want, wantErr = nf, nil
		}
		if (err == nil) != (wantErr == nil) || !sameBits(float64(got), want) {
			t.Fatalf("%q: snapshot float %v, %v; encoding/json %v, %v", lit, float64(got), err, want, wantErr)
		}
	})
}

// TestHyperparametersSurviveSnapshot: a warm start decoded from a snapshot
// must hand a fit the bits the saved model's Hyperparameters would — for a
// fitted model, an appended one, a hyperparameter-only one and one with
// non-finite entries.
func TestHyperparametersSurviveSnapshot(t *testing.T) {
	check := func(name string, model *LCM) {
		t.Helper()
		blob, err := model.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, _, err := DecodeHyperparameters(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := model.Hyperparameters()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hyperparameters decoded, %d saved", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: theta[%d] = %v decoded, %v saved", name, i, got[i], want[i])
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
