package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/surrogate"
)

// runRefit runs the analytical benchmark with the given worker count,
// GOMAXPROCS and extra option tweaks, returning the full tuning history.
func runRefit(t *testing.T, workers, procs int, tweak func(*Options)) *Result {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	opts := Options{EpsTot: 12, Seed: 42, Workers: workers}
	if tweak != nil {
		tweak(&opts)
	}
	res, err := Run(analyticalProblem(), [][]float64{{0}, {1.5}, {3}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRefitEveryOneMatchesDefaultBitwise pins the compatibility contract:
// RefitEvery ≤ 1 is not a near-miss of the historical behavior, it IS the
// historical behavior — same fits, same seeds, same history, bitwise.
func TestRefitEveryOneMatchesDefaultBitwise(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	base := runRefit(t, 4, procs, nil)
	one := runRefit(t, 4, procs, func(o *Options) { o.RefitEvery = 1 })
	requireBitwiseEqualHistories(t, "RefitEvery=1 vs default", base, one)
}

// TestRefitEveryDeterministicAcrossWorkers extends the worker-count
// determinism contract to incremental modeling: with RefitEvery > 1 the
// appended factor extensions (lcm) and sufficient-statistic updates (sgp)
// must leave the tuning history bitwise independent of parallelism.
func TestRefitEveryDeterministicAcrossWorkers(t *testing.T) {
	for _, kind := range []string{surrogate.KindLCM, surrogate.KindSGP} {
		tweak := func(o *Options) {
			o.Surrogate = kind
			o.RefitEvery = 3
		}
		serial := runRefit(t, 1, 1, tweak)
		parallel := runRefit(t, 8, 8, tweak)
		requireBitwiseEqualHistories(t, kind+" RefitEvery=3 workers 1 vs 8", serial, parallel)
	}
}

// countingCheckpoint is an in-memory checkpoint that can archive models: it
// counts evaluations and snapshots. Incremental generations must not produce
// a snapshot (the hyperparameters haven't moved since the refit that already
// saved them).
type countingCheckpoint struct{ evals, saves int }

func (c *countingCheckpoint) Eval(CheckpointRecord) error { c.evals++; return nil }
func (c *countingCheckpoint) Lookup(_, _ []float64) ([]float64, []float64, bool) {
	return nil, nil, false
}
func (c *countingCheckpoint) SaveModel(ModelSnapshot) error { c.saves++; return nil }

// TestRefitEveryCadence observes the refit schedule through the checkpoint's
// snapshots: the 12-eval benchmark runs 6 search generations, so
// RefitEvery=3 must refit (and snapshot) on generations 1 and 4 only, while
// the default snapshots all 6. It also pins that the incremental path
// genuinely runs — if appends silently fell back to refits, the counts would
// match. A forest's fit reads no warm start, so rf archives nothing and its
// refits show in the history instead: with no incremental path, rf at
// RefitEvery=3 is rf at RefitEvery=1, bit for bit. A checkpoint without
// SaveModel gets evaluations and no snapshots.
func TestRefitEveryCadence(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	every := &countingCheckpoint{}
	saved := runRefit(t, 4, procs, func(o *Options) { o.Checkpoint = every })
	inc := &countingCheckpoint{}
	runRefit(t, 4, procs, func(o *Options) { o.Checkpoint = inc; o.RefitEvery = 3 })
	if every.saves != 6 {
		t.Fatalf("default run saved %d snapshots, want 6", every.saves)
	}
	if inc.saves != 2 {
		t.Fatalf("RefitEvery=3 run saved %d snapshots, want 2 (generations 1 and 4)", inc.saves)
	}
	rf := &countingCheckpoint{}
	rf3 := runRefit(t, 4, procs, func(o *Options) {
		o.Checkpoint = rf
		o.RefitEvery = 3
		o.Surrogate = surrogate.KindRF
	})
	if rf.saves != 0 {
		t.Fatalf("rf run saved %d snapshots, want none (forests read no warm start)", rf.saves)
	}
	rf1 := runRefit(t, 4, procs, func(o *Options) { o.RefitEvery = 1; o.Surrogate = surrogate.KindRF })
	requireBitwiseEqualHistories(t, "rf RefitEvery=3 vs RefitEvery=1", rf3, rf1)
	for _, c := range []*countingCheckpoint{every, inc, rf} {
		if c.evals != 36 {
			t.Fatalf("checkpoint received %d evaluations, want 36 (3 tasks × 12)", c.evals)
		}
	}
	// Archiving models is a capability of the checkpoint, not a requirement:
	// one without SaveModel gets every evaluation, and the run is the same.
	rc := &recordingCheckpoint{}
	plain := runRefit(t, 4, procs, func(o *Options) { o.Checkpoint = rc })
	if len(rc.recs) != 36 {
		t.Fatalf("checkpoint without SaveModel received %d evaluations, want 36", len(rc.recs))
	}
	requireBitwiseEqualHistories(t, "checkpoint with vs without SaveModel", saved, plain)
}

// historyHash is an FNV-64a hash of every task's configurations and outputs
// at math.Float64bits.
func historyHash(res *Result) string {
	h := fnv.New64a()
	var b [8]byte
	for _, tr := range res.Tasks {
		for j := range tr.X {
			for _, v := range append(append([]float64(nil), tr.X[j]...), tr.Y[j]...) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// snapshotCheckpoint is an in-memory checkpoint that keeps every model
// snapshot it is handed.
type snapshotCheckpoint struct {
	countingCheckpoint
	snaps []ModelSnapshot
}

func (c *snapshotCheckpoint) SaveModel(s ModelSnapshot) error {
	c.snaps = append(c.snaps, s)
	return nil
}

// TestRefitEveryWarmStartGolden pins RefitEvery=3 histories of every backend
// whose fit reads a warm start, cold and from an earlier run's snapshots:
// the first refit starts from Options.WarmStart, the second from the first
// refit's hyperparameters. Recorded when the second refit read them off the
// live model, so the decoded snapshot must hand it the same bits.
func TestRefitEveryWarmStartGolden(t *testing.T) {
	want := map[string][2]string{ // kind: {cold, from an earlier run's snapshots}
		surrogate.KindLCM:     {"15c5000a31fa8320", "15c5000a31fa8320"},
		surrogate.KindGPIndep: {"8fb5dc2528946617", "96621de1659320aa"},
		surrogate.KindSGP:     {"6e7ad6c8306ee07a", "9d8a13ba42e2e2ef"},
	}
	procs := runtime.GOMAXPROCS(0)
	for kind, hashes := range want {
		prior := &snapshotCheckpoint{}
		runRefit(t, 1, procs, func(o *Options) {
			o.Surrogate = kind
			o.Seed = 7
			o.Checkpoint = prior
		})
		for i, warm := range [][]ModelSnapshot{nil, prior.snaps} {
			res := runRefit(t, 1, procs, func(o *Options) {
				o.Surrogate = kind
				o.RefitEvery = 3
				o.WarmStart = warm
			})
			if got := historyHash(res); got != hashes[i] {
				t.Errorf("%s (%d prior snapshots): history hash %s, recorded %s", kind, len(warm), got, hashes[i])
			}
		}
	}
}

// warmFitter records, for each fit, the warm start it was handed and its
// model's snapshot decoded. With refuse set its models refuse every append.
type warmFitter struct {
	surrogate.Fitter
	refuse       bool
	warm, fitted [][][]float64
}

func (f *warmFitter) Fit(data *surrogate.Dataset, opts surrogate.FitOptions) (surrogate.Model, error) {
	m, err := f.Fitter.Fit(data, opts)
	if err != nil {
		return nil, err
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	decoded, err := surrogate.WarmStart(f.Kind(), blob)
	if err != nil {
		return nil, err
	}
	f.warm, f.fitted = append(f.warm, opts.WarmStart), append(f.fitted, decoded)
	if f.refuse {
		return refusingModel{m}, nil
	}
	return m, nil
}

type refusingModel struct{ surrogate.Model }

func (refusingModel) Append(*surrogate.Dataset, int) error { return errors.New("refused") }

// sameVectors reports whether a and b hold the same vectors, bit for bit.
func sameVectors(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestRefitWarmStartSource follows each refit's FitOptions.WarmStart under
// RefitEvery=3: the first refit reads Options.WarmStart and the next one the
// first refit's model's hyperparameters; but when an append fails, the stale
// models' hyperparameters go with them and the refit that replaces them
// reads Options.WarmStart again.
func TestRefitWarmStartSource(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, kind := range []string{surrogate.KindLCM, surrogate.KindGPIndep, surrogate.KindSGP} {
		inner, err := surrogate.New(kind)
		if err != nil {
			t.Fatal(err)
		}
		prior := &snapshotCheckpoint{}
		runRefit(t, 1, procs, func(o *Options) { o.Surrogate = kind; o.Seed = 7; o.Checkpoint = prior })
		last := prior.snaps[len(prior.snaps)-1]
		opening, err := surrogate.WarmStart(kind, last.Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, refuse := range []bool{false, true} {
			f := &warmFitter{Fitter: inner, refuse: refuse}
			runRefit(t, 1, procs, func(o *Options) {
				o.RefitEvery = 3
				o.WarmStart = []ModelSnapshot{last}
				o.fitterOverride = f
			})
			if want := map[bool]int{false: 2, true: 6}[refuse]; len(f.warm) != want {
				t.Fatalf("%s (appends refused %v): %d refits, want %d", kind, refuse, len(f.warm), want)
			}
			for i, got := range f.warm {
				want := opening
				if i > 0 && !refuse {
					want = f.fitted[i-1]
				}
				if !sameVectors(got, want) {
					t.Errorf("%s (appends refused %v): refit %d started from %v, want %v", kind, refuse, i, got, want)
				}
			}
		}
	}
}
