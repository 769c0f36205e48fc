// Package superlu simulates SuperLU_DIST sparse LU factorization (paper
// Sections 6.2, 6.6, 6.7) on synthesized PARSEC-like matrices.
//
// Substitution note (see DESIGN.md): the real runs factor SuiteSparse PARSEC
// matrices on Cori. Here each matrix is a synthesized density-functional
// Hamiltonian pattern (internal/sparse.Hamiltonian) at 1/8 of the published
// dimension (quotient-graph minimum degree at full scale is too slow for a
// pure-Go reproduction loop), and the COLPERM/NSUP/NREL tuning parameters
// act through a *real* symbolic factorization: fill-reducing ordering,
// elimination tree, exact fill/flop counts and supernode partitioning. Time
// and memory are then modeled from those true counts plus a machine model —
// so the tuner faces genuine, data-dependent parameter sensitivities,
// including the Fig. 7 time-vs-memory tradeoff.
package superlu

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/space"
	"repro/internal/sparse"
)

// MatrixSpec names one PARSEC-group matrix and its synthesis parameters.
type MatrixSpec struct {
	Name   string
	N      int // scaled dimension (published/8, see package comment)
	AvgDeg int
	Seed   int64
}

// PARSEC lists the eight matrices of Sections 6.6–6.7 (Si2, SiH4, SiNa,
// Na5, benzene, Si10H16, Si5H12, SiO), size-ordered as published.
var PARSEC = []MatrixSpec{
	{Name: "Si2", N: 769, AvgDeg: 22, Seed: 101},
	{Name: "SiH4", N: 630, AvgDeg: 17, Seed: 102},
	{Name: "SiNa", N: 718, AvgDeg: 12, Seed: 103},
	{Name: "Na5", N: 729, AvgDeg: 18, Seed: 104},
	{Name: "benzene", N: 1027, AvgDeg: 14, Seed: 105},
	{Name: "Si10H16", N: 2135, AvgDeg: 17, Seed: 106},
	{Name: "Si5H12", N: 2487, AvgDeg: 12, Seed: 107},
	{Name: "SiO", N: 4175, AvgDeg: 13, Seed: 108},
}

// MatrixNames returns the PARSEC names in order (the categorical task
// labels).
func MatrixNames() []string {
	names := make([]string, len(PARSEC))
	for i, m := range PARSEC {
		names[i] = m.Name
	}
	return names
}

// App is the SuperLU_DIST simulator. All symbolic analyses are cached per
// (matrix, ordering), so repeated objective evaluations cost O(n).
type App struct {
	Machine machine.Machine
	PMax    int // total cores (32 Cori nodes = 1024 in Fig. 6)
	Noise   *machine.Noise

	mu       sync.Mutex
	patterns map[string]*sparse.Pattern
	analyses map[string]*sparse.Analysis
}

// New returns the simulator on nodes Cori-Haswell nodes.
func New(nodes int) *App {
	m := machine.CoriHaswell()
	return &App{
		Machine:  m,
		PMax:     nodes * m.CoresPerNode,
		Noise:    machine.NewNoise(0.05, 0x5107),
		patterns: make(map[string]*sparse.Pattern),
		analyses: make(map[string]*sparse.Analysis),
	}
}

func (a *App) spec(idx int) MatrixSpec {
	if idx < 0 {
		idx = 0
	}
	if idx >= len(PARSEC) {
		idx = len(PARSEC) - 1
	}
	return PARSEC[idx]
}

// analysis returns the cached symbolic factorization of matrix idx under the
// given column ordering.
func (a *App) analysis(idx int, ord sparse.Ordering) *sparse.Analysis {
	spec := a.spec(idx)
	key := fmt.Sprintf("%s|%d", spec.Name, ord)
	a.mu.Lock()
	if an, ok := a.analyses[key]; ok {
		a.mu.Unlock()
		return an
	}
	pat, ok := a.patterns[spec.Name]
	a.mu.Unlock()
	if !ok {
		pat = sparse.Hamiltonian(spec.N, spec.AvgDeg, spec.Seed)
		a.mu.Lock()
		a.patterns[spec.Name] = pat
		a.mu.Unlock()
	}
	perm := sparse.Order(pat, ord, spec.Seed)
	an := sparse.Analyze(pat, perm)
	a.mu.Lock()
	a.analyses[key] = an
	a.mu.Unlock()
	return an
}

// Config holds native tuning parameters (Table 5's columns).
type Config struct {
	ColPerm sparse.Ordering
	Look    int // look-ahead window
	P       int // MPI processes
	Pr      int // process-grid rows
	NSup    int // maximum supernode size
	NRel    int // relaxed supernode threshold
}

// DefaultConfig mirrors SuperLU_DIST defaults as in the paper's Table 5
// (COLPERM=MMD, LOOK=10, p=256, p_r=16, NSUP=128, NREL=20), with p clipped
// to the available cores.
func (a *App) DefaultConfig() Config {
	p := 256
	if p > a.PMax {
		p = a.PMax
	}
	return Config{ColPerm: sparse.MinDegree, Look: 10, P: p, Pr: 16, NSup: 128, NRel: 20}
}

// supEfficiency is the BLAS-3 efficiency of supernode-panel updates as a
// function of the average supernode width.
func supEfficiency(avg float64) float64 {
	return 0.75 * (avg / (avg + 12)) / (1 + (avg/280)*(avg/280))
}

// FactorCost returns the modeled factorization time (seconds) and peak
// per-process memory (bytes) for matrix idx under cfg.
func (a *App) FactorCost(idx int, cfg Config) (timeSec, memBytes float64) {
	spec := a.spec(idx)
	an := a.analysis(idx, cfg.ColPerm)
	return ModelCost(a.Machine, float64(spec.N), an, cfg)
}

// ModelCost converts a symbolic factorization into modeled SuperLU_DIST
// factorization time and peak per-process memory under cfg. Exported so the
// M3D_C1/NIMROD simulators can price their per-time-step subdomain
// factorizations with the same model.
func ModelCost(mach machine.Machine, n float64, an *sparse.Analysis, cfg Config) (timeSec, memBytes float64) {
	if cfg.P < 1 {
		cfg.P = 1
	}
	if cfg.Pr < 1 {
		cfg.Pr = 1
	}
	if cfg.Pr > cfg.P {
		cfg.Pr = cfg.P
	}
	pc := cfg.P / cfg.Pr
	if pc < 1 {
		pc = 1
	}
	_, stats := sparse.Supernodes(an.Parent, an.ColCounts, cfg.NSup, cfg.NRel)

	fillLU := 2*float64(an.FillL) - n
	padRatio := stats.Padding * stats.AvgLen / math.Max(fillLU, 1)
	if padRatio > 2 {
		padRatio = 2
	}
	flops := 2 * an.Flops * (1 + padRatio)

	// Flop time: per-process share at supernode-width-dependent BLAS-3
	// efficiency, inflated by grid-aspect and granularity imbalance.
	rate := mach.FlopsPerCore * supEfficiency(stats.WeightedLen)
	aspect := math.Max(float64(cfg.Pr)/float64(pc), float64(pc)/float64(cfg.Pr))
	granularity := 1 + stats.WeightedLen*math.Sqrt(float64(cfg.P))/n
	tFlop := flops / (float64(cfg.P) * rate) * la.Pow(aspect, 0.25) * granularity

	// Communication: one row- and column-broadcast per supernode panel,
	// partially hidden by the look-ahead pipeline.
	look := cfg.Look
	if look < 1 {
		look = 1
	}
	pipeline := 0.25 + 0.75/(1+0.2*float64(look-1))
	logPr := math.Log2(math.Max(float64(cfg.Pr), 2))
	logPc := math.Log2(math.Max(float64(pc), 2))
	msgs := float64(stats.Count) * (logPr + logPc) * pipeline
	vol := fillLU * 8 * (1/float64(cfg.Pr) + 1/float64(pc)) * pipeline
	tComm := mach.TimeComm(msgs, vol)

	// Triangular-solve-ish pivoting overhead grows when supernodes are tiny.
	tPivot := n / 1e7 * (1 + 64/math.Max(stats.WeightedLen, 1))

	timeSec = tFlop + tComm + tPivot + 0.01

	// Peak per-process memory: factor share + panel broadcast buffers
	// (scaling with NSUP and the look-ahead depth) + padding.
	maxCC := 0.0
	for _, c := range an.ColCounts {
		if float64(c) > maxCC {
			maxCC = float64(c)
		}
	}
	factorMem := 16 * fillLU * (1 + padRatio) / float64(cfg.P)
	bufMem := 8 * float64(cfg.NSup) * maxCC * (1 + 0.5*float64(look))
	memBytes = factorMem + bufMem + 1<<20
	return timeSec, memBytes
}

// tuningSpace builds the β=6 tuning space (COLPERM, LOOK, p, p_r, NSUP,
// NREL) with the p_r ≤ p constraint.
func (a *App) tuningSpace() *space.Space {
	s := space.MustNew(
		space.NewCategorical("COLPERM", sparse.OrderingNames...),
		space.NewInteger("LOOK", 1, 30),
		space.NewLogInteger("p", 4, a.PMax),
		space.NewLogInteger("pr", 1, a.PMax),
		space.NewLogInteger("NSUP", 8, 512),
		space.NewLogInteger("NREL", 1, 128),
	)
	pr, p := s.IndexOf("pr"), s.IndexOf("p")
	s.AddConstraint("pr<=p", func(x []float64) bool { return x[pr] <= x[p] })
	return s
}

// Problem returns the single-objective (factorization time) tuning problem.
// Task = [matrix index] (categorical over the PARSEC names).
func (a *App) Problem() *core.Problem {
	return &core.Problem{
		Name:    "superlu",
		Tasks:   space.MustNew(space.NewCategorical("matrix", MatrixNames()...)),
		Tuning:  a.tuningSpace(),
		Outputs: space.NewOutputSpace("time"),
		Objective: func(task, x []float64) ([]float64, error) {
			idx := int(task[0])
			cfg := ConfigFromVector(x)
			t, _ := a.FactorCost(idx, cfg)
			key := fmt.Sprintf("slu|%d|%+v", idx, cfg)
			return []float64{t * a.Noise.Mul(key)}, nil
		},
	}
}

// ProblemMO returns the γ=2 (time, memory) multi-objective problem of
// Section 6.7.
func (a *App) ProblemMO() *core.Problem {
	return &core.Problem{
		Name:    "superlu-mo",
		Tasks:   space.MustNew(space.NewCategorical("matrix", MatrixNames()...)),
		Tuning:  a.tuningSpace(),
		Outputs: space.NewOutputSpace("time", "memory"),
		Objective: func(task, x []float64) ([]float64, error) {
			idx := int(task[0])
			cfg := ConfigFromVector(x)
			t, mem := a.FactorCost(idx, cfg)
			key := fmt.Sprintf("slu|%d|%+v", idx, cfg)
			return []float64{t * a.Noise.Mul(key), mem}, nil
		},
	}
}

// ConfigToVector converts a Config to the native tuning vector.
func ConfigToVector(cfg Config) []float64 {
	return []float64{
		float64(cfg.ColPerm), float64(cfg.Look), float64(cfg.P),
		float64(cfg.Pr), float64(cfg.NSup), float64(cfg.NRel),
	}
}

// ConfigFromVector converts a native tuning vector to a Config, the inverse
// of ConfigToVector.
func ConfigFromVector(x []float64) Config {
	return Config{
		ColPerm: sparse.Ordering(int(x[0])),
		Look:    int(x[1]),
		P:       int(x[2]),
		Pr:      int(x[3]),
		NSup:    int(x[4]),
		NRel:    int(x[5]),
	}
}
