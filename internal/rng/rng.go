// Package rng is the one place a random stream is made. Every generator in
// the tuner is rng.New(seed, tag, labels…): the run's seed, a purpose tag
// declared below, and the labels that tell that purpose's streams apart
// (task, slot, generation, …). The seed and labels are mixed by SplitMix64
// into the state of a math/rand/v2 PCG, wrapped in a math/rand.Rand so the
// packages that take a *rand.Rand keep their signatures.
//
// A PCG seeds in a few nanoseconds and holds 16 bytes, where math/rand's
// default source fills a 607-word table per seed, so a stream per task, per
// slot or per tree costs nothing worth sharing. Because every purpose has
// its own tag, two purposes never draw from one stream whatever their
// labels are.
package rng

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Purpose tags: a stream's first label. Each randomized step of the tuner
// has its own; adding a purpose adds a tag here, never a new derivation.
const (
	Engine     uint64 = iota + 1 // core: an engine's sequential stream (initial LHS, default coefficients)
	Search                       // core: one PSO search; labels task, minSamples, slot
	MO                           // core: one NSGA-II search; labels task, minSamples
	Retry                        // core: a job's failure retries; labels task, slot, minSamples before its batch
	Fit                          // core: a generation's model fit seed; labels minSamples, objective
	Cell                         // surrogate: a per-task model's fit seed; label task
	Start                        // gp: one L-BFGS start's initial point; label start
	Inducing                     // surrogate: sgp's inducing-point selection
	Tree                         // rf: one tree's bootstrap and feature draws; label tree
	Tasks                        // task vectors drawn by LHS (gptune.SampleTasks, experiments)
	Random                       // tuners: the random-search baseline
	HpBandSter                   // tuners: the HpBandSter baseline
	OpenTuner                    // tuners: the OpenTuner baseline
	SuRF                         // tuners: the SuRF baseline's sampling
	SuRFForest                   // tuners: one SuRF forest's fit seed; label observations
	Sparse                       // sparse: a synthetic Hamiltonian pattern
	Verify                       // bench: a scenario's conformance sample
	Jitter                       // client: retry backoff jitter
	Example                      // examples: synthetic data
	endTags                      // one past the last tag; keep it last
)

// New returns the stream of seed and labels: a generator in the state
// r.Seed(Mix(seed, labels...)) leaves one in.
func New(seed int64, labels ...uint64) *rand.Rand {
	src := new(source)
	src.Seed(Mix(seed, labels...))
	return rand.New(src)
}

// Mix folds labels into seed with SplitMix64, one step per label, and
// returns the seed of their stream: r.Seed(Mix(seed, labels...)) on a
// generator from New restarts it as New(seed, labels...) without
// allocating.
func Mix(seed int64, labels ...uint64) int64 {
	h := splitmix(uint64(seed))
	for _, l := range labels {
		h = splitmix(h ^ l)
	}
	return int64(h)
}

// splitmix is one SplitMix64 step: the golden-ratio increment, then
// Stafford's variant-13 finalizer. It is a bijection, so one label's values
// never share a stream under one prefix.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// source adapts a PCG to math/rand's Source64.
type source struct{ pcg randv2.PCG }

// Seed sets the PCG's 128-bit state from a mixed seed: the seed itself and
// one more SplitMix64 step of it.
func (s *source) Seed(seed int64) { s.pcg.Seed(uint64(seed), splitmix(uint64(seed))) }

func (s *source) Uint64() uint64 { return s.pcg.Uint64() }

func (s *source) Int63() int64 { return int64(s.pcg.Uint64() &^ (1 << 63)) }
