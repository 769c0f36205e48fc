package core

import (
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
