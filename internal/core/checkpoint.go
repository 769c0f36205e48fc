package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/histdb"
)

// CheckpointRecord is one completed objective evaluation as streamed to a
// checkpoint: which task, which configuration was requested and which was
// actually evaluated (they differ only when retries substituted a fresh
// feasible point), the outputs, and the tuning phase that produced it.
type CheckpointRecord struct {
	Phase     string    // "init", "search" (Algorithm 1) or "mo" (Algorithm 2)
	Task      []float64 // native task parameters
	Requested []float64 // configuration the search asked for
	X         []float64 // configuration evaluated
	Y         []float64 // γ outputs
}

// Checkpoint receives every completed evaluation of an MLA run, in an order
// that depends only on the run's seed and options — never on goroutine
// scheduling — so the stream is a replayable log. The engine calls Eval and
// Lookup under its mutex, one at a time, from whichever goroutine reported
// the observation or installed the batch.
type Checkpoint interface {
	// Eval is called once per completed evaluation, as soon as it and every
	// earlier evaluation of its batch have finished (mid-batch, not at the
	// batch barrier). Returning an error aborts the run.
	Eval(rec CheckpointRecord) error
	// Lookup consults the log of a resumed run: when the evaluation for
	// (task, requested) already completed before the crash, it returns the
	// logged final configuration and outputs and the tuner skips the
	// objective call. Each logged record satisfies at most one Lookup.
	Lookup(task, requested []float64) (x, y []float64, ok bool)
}

// CheckpointOptions configures a WAL-backed checkpoint.
type CheckpointOptions struct {
	// Problem names the run in the log; Resume refuses a log whose records
	// belong to a different problem.
	Problem string
	// Clock stamps log records; pass the run's Options.Clock so a
	// deterministic run performs no wall-clock reads. nil uses time.Now.
	Clock func() time.Time
}

// Checkpointer streams an MLA run's evaluations to a crash-safe
// write-ahead log (histdb.WAL) and, after Resume, replays them so the run
// continues where it was killed: the tuner re-derives its decisions
// deterministically and satisfies already-logged evaluations from the log
// instead of re-paying the objective. Replayed deliveries are verified
// bitwise against the log, so any divergence (changed seed, options, or
// objective) fails loudly instead of corrupting the history.
//
// It holds no history of its own: the log is on disk, the history in the
// engine, and in between a replay cursor — released the moment the last
// logged evaluation is verified — and two counters.
type Checkpointer struct {
	wal     *histdb.WAL
	problem string

	mu     sync.Mutex
	replay []histdb.Record // logged evaluations still being replayed; nil once Eval has verified the last
	pos    int             // next replay record Eval must reproduce
	next   int             // next replay record Lookup may hand out
	models int             // non-evaluation (model-snapshot) records in the WAL
}

// NewCheckpoint creates a fresh WAL-backed checkpoint at path. It refuses a
// location that already holds records — resume those with Resume, or point
// a new run at a new path (a finished run's log is an archive, not scratch).
func NewCheckpoint(path string, opts CheckpointOptions) (*Checkpointer, error) {
	c, err := Resume(path, opts)
	if err != nil {
		return nil, err
	}
	if n := len(c.replay); n > 0 {
		_ = c.wal.Close() // already failing; the open error is the one to report
		return nil, fmt.Errorf("core: checkpoint %s already holds %d records; use Resume to continue it", path, n)
	}
	return c, nil
}

// Resume opens the WAL-backed checkpoint at path and prepares its records
// for replay: pass the returned Checkpointer as Options.Checkpoint and run
// RunContext with the same problem, tasks, seed and options as the killed
// run, on a build whose modeling and search phases decide as the killed
// run's did (DESIGN.md §8). The run reproduces the logged prefix bitwise
// without re-invoking the objective for logged evaluations, then continues
// tuning (and logging) from where the crash cut it off. A missing file
// resumes as a fresh run.
func Resume(path string, opts CheckpointOptions) (*Checkpointer, error) {
	// No group commit: every evaluation is durable the moment it is delivered.
	wal, records, err := histdb.OpenWALRecords(path, histdb.WALOptions{Clock: opts.Clock})
	if err != nil {
		return nil, err
	}
	// Model-snapshot records ride in the same log but are not evaluations:
	// they never replay through Eval/Lookup (the engine re-fits and re-saves
	// deterministically), so the replay list holds evaluation records only
	// and their blobs go out of scope here, with the recovered slice.
	var replay []histdb.Record
	for i, r := range records {
		if opts.Problem != "" && r.Problem != opts.Problem {
			_ = wal.Close() // already failing; the mismatch error is the one to report
			return nil, fmt.Errorf("core: checkpoint %s record %d belongs to problem %q, not %q",
				path, i, r.Problem, opts.Problem)
		}
		if r.IsEval() {
			replay = append(replay, r)
		}
	}
	return &Checkpointer{
		wal: wal, problem: opts.Problem,
		replay: replay, models: len(records) - len(replay),
	}, nil
}

// Logged returns how many evaluations the checkpoint currently holds
// (replayed + newly appended). Model-snapshot records do not count.
func (c *Checkpointer) Logged() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal.Len() - c.models
}

// SaveModel appends a fitted-surrogate snapshot to the write-ahead log as a
// histdb.KindModel record. An engine whose Options.Checkpoint is the
// Checkpointer calls it after every refit of a backend whose fit reads a warm
// start, so each such modeling phase's result is durable alongside the
// evaluations it was fitted on. Later sessions load the
// snapshots with the facade's LoadModelSnapshots and feed them to
// Options.WarmStart.
func (c *Checkpointer) SaveModel(snap ModelSnapshot) error {
	if err := c.wal.Append(histdb.Record{
		Problem:   c.problem,
		Kind:      histdb.KindModel,
		Surrogate: snap.Kind,
		Objective: snap.Objective,
		Snapshot:  snap.Data,
	}); err != nil {
		return err
	}
	c.mu.Lock()
	c.models++
	c.mu.Unlock()
	return nil
}

// Replaying reports whether the checkpoint still holds logged evaluations
// the run has not reproduced yet — a resumed engine is behind its log until
// this turns false.
func (c *Checkpointer) Replaying() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pos < len(c.replay)
}

// Compact folds the checkpoint's log into its snapshot file (see
// histdb.WAL.Compact).
func (c *Checkpointer) Compact() error { return c.wal.Compact() }

// Export returns a consistent copy of the checkpoint's snapshot and log
// files (see histdb.WAL.Export) — everything a Resume on another machine
// needs to replay the study bitwise.
func (c *Checkpointer) Export() (snapshot, log []byte, err error) { return c.wal.Export() }

// Close flushes and closes the underlying log.
func (c *Checkpointer) Close() error { return c.wal.Close() }

// Eval implements Checkpoint: while replaying it verifies the delivery
// reproduces the logged record bitwise; past the replayed prefix it appends
// the record durably to the WAL.
func (c *Checkpointer) Eval(rec CheckpointRecord) error {
	c.mu.Lock()
	if c.pos < len(c.replay) {
		i, logged := c.pos, c.replay[c.pos]
		c.pos++
		if c.pos == len(c.replay) { // log reproduced: the engine's copy is now the only one
			c.replay = nil
		}
		c.mu.Unlock()
		if logged.Phase != rec.Phase ||
			!bitsEqual(logged.Task, rec.Task) ||
			!bitsEqual(loggedRequested(logged), rec.Requested) ||
			!bitsEqual(logged.Config, rec.X) ||
			!bitsEqual(logged.Outputs, rec.Y) {
			return fmt.Errorf("core: resume diverged at logged evaluation %d: log has phase=%s task=%v x=%v, run produced phase=%s task=%v x=%v (same problem, seed, options and build required: a log resumes only under the fit and search code that wrote it)",
				i, logged.Phase, logged.Task, logged.Config, rec.Phase, rec.Task, rec.X)
		}
		return nil
	}
	c.mu.Unlock()
	r := histdb.Record{
		Problem:   c.problem,
		Task:      rec.Task,
		Config:    rec.X,
		Outputs:   rec.Y,
		Phase:     rec.Phase,
		Requested: rec.Requested,
	}
	if bitsEqual(rec.Requested, rec.X) {
		r.Requested = nil // the common no-retry case; Config doubles as Requested
	}
	return c.wal.Append(r)
}

// loggedRequested is the configuration a logged evaluation was asked for:
// Requested when a retry made it differ from Config, else Config itself.
func loggedRequested(r histdb.Record) []float64 {
	if r.Requested != nil {
		return r.Requested
	}
	return r.Config
}

// Lookup implements Checkpoint: it hands out the next unconsumed replay
// record if it matches (task, requested) bitwise. Prefix commit makes a log
// the canonical job order cut short, the order install looks jobs up in, so
// no later record can match first; a log out of that order fails in Eval.
func (c *Checkpointer) Lookup(task, requested []float64) (x, y []float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next >= len(c.replay) || !bitsEqual(c.replay[c.next].Task, task) || !bitsEqual(loggedRequested(c.replay[c.next]), requested) {
		return nil, nil, false
	}
	c.next++
	r := c.replay[c.next-1]
	return append([]float64(nil), r.Config...), append([]float64(nil), r.Outputs...), true
}

// bitsEqual compares two vectors at the Float64bits level — the same
// equality the determinism harness asserts, exact across the JSON
// round-trip (encoding/json emits shortest round-trippable literals).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
