package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"repro/gptune"
	"repro/gptune/client"
)

// replayResult is one study driven through a bare in-process engine, one
// suggestion at a time: per-call latencies outside generations, the
// engine's own phase accounting, and Observe latency again with every
// commit going through a WAL-backed checkpoint.
type replayResult struct {
	suggestNs, observeNs, observeWalNs []float64
	stats                              gptune.PhaseStats
	wallS                              float64
	generations                        int
}

// engineReplay drives st twice: to completion without a checkpoint (the
// engine alone), and through its initial batch with a fresh Checkpointer
// (the engine plus WAL append + fsync per commit). The differences between
// these, the serve handler, the direct client and the routed client are
// how the service path is attributed layer by layer.
func engineReplay(e *env, st *tuneStudy) (*replayResult, error) {
	out := &replayResult{}
	t0 := time.Now()
	if err := askTell(st, st.opts, -1, out, false); err != nil {
		return nil, err
	}
	out.wallS = time.Since(t0).Seconds()

	cp, err := gptune.NewCheckpoint(filepath.Join(e.work, "replay-"+st.id+".hist.json"), gptune.CheckpointOptions{Problem: st.id})
	if err != nil {
		return nil, err
	}
	opts := st.opts
	opts.Checkpoint = cp
	err = askTell(st, opts, len(st.tasks)*st.initPerTask(), out, true)
	if cerr := cp.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// askTell runs the suggest/evaluate/observe loop for at most limit
// evaluations (-1: to the end of the budget).
func askTell(st *tuneStudy, opts gptune.Options, limit int, out *replayResult, wal bool) error {
	eng, err := gptune.NewEngine(st.problem, st.tasks, opts)
	if err != nil {
		return err
	}
	boundary := len(st.tasks) * st.initPerTask()
	for n := 0; limit < 0 || n < limit; n++ {
		generation := n > 0 && n == boundary
		if generation {
			boundary += len(st.tasks)
		}
		t0 := time.Now()
		sg, err := eng.Suggest(-1)
		d := time.Since(t0)
		if errors.Is(err, gptune.ErrDone) {
			break
		}
		if err != nil {
			return fmt.Errorf("replay %s: suggest: %w", st.id, err)
		}
		if generation {
			out.generations++
		} else if !wal {
			out.suggestNs = append(out.suggestNs, float64(d.Nanoseconds()))
		}
		y, err := st.problem.Objective(st.tasks[sg.Task], sg.X)
		if err != nil {
			return fmt.Errorf("replay %s: objective: %w", st.id, err)
		}
		t0 = time.Now()
		err = eng.Observe(sg.ID, y)
		d = time.Since(t0)
		if err != nil {
			return fmt.Errorf("replay %s: observe: %w", st.id, err)
		}
		if wal {
			out.observeWalNs = append(out.observeWalNs, float64(d.Nanoseconds()))
		} else {
			out.observeNs = append(out.observeNs, float64(d.Nanoseconds()))
		}
	}
	if !wal {
		out.stats = eng.Result().Stats
	}
	return nil
}

// optionsOf is the engine options a study spec's options stand for (the
// same field-by-field mapping the server applies), used to replay a served
// study in-process.
func optionsOf(o client.OptionsSpec) gptune.Options {
	return gptune.Options{
		EpsTot: o.EpsTot, InitFraction: o.InitFraction, Workers: o.Workers, LogY: o.LogY,
		Q: o.Q, NumStarts: o.NumStarts, ModelMaxIter: o.ModelMaxIter,
		Acquisition: o.Acquisition, LCBKappa: o.LCBKappa, BatchEvals: o.BatchEvals,
		Seed: o.Seed, Surrogate: o.Surrogate, RefitEvery: o.RefitEvery, Inducing: o.Inducing,
	}
}

// replaySplit replays a sample of served studies through a bare in-process
// engine and scales the engine's phase accounting to the number of studies
// the workload drove: what core spent on this workload, seen without HTTP,
// routing or the WAL in the way.
func replaySplit(e *env, sample []*remoteStudy, studies int) (*phaseSplit, []float64, error) {
	split := &phaseSplit{}
	var walNs []float64
	for _, rs := range sample {
		r, err := engineReplay(e, rs.st)
		if err != nil {
			return nil, nil, err
		}
		split.modelingS += r.stats.Modeling.Seconds()
		split.searchS += r.stats.Search.Seconds()
		split.wallS += r.wallS
		split.generations += r.generations
		split.suggestNs = append(split.suggestNs, r.suggestNs...)
		split.observeNs = append(split.observeNs, r.observeNs...)
		walNs = append(walNs, r.observeWalNs...)
	}
	scale := float64(studies) / float64(len(sample))
	split.modelingS *= scale
	split.searchS *= scale
	split.wallS *= scale
	split.generations = int(math.Round(float64(split.generations) * scale))
	split.refits = split.generations // served studies refit every generation
	return split, walNs, nil
}
