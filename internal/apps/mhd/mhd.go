// Package mhd simulates the two fusion-plasma production codes of the paper
// (Section 6.2/6.5): M3D_C1 and NIMROD. Both are time-marching
// magnetohydrodynamics codes whose dominant cost is solving a nonsymmetric
// sparse linear system per time step with preconditioned GMRES, using
// SuperLU_DIST factorizations of the poloidal-plane blocks as a block-Jacobi
// preconditioner. The task parameter is the number of time steps — the
// paper's motivating multitask setting, where cheap few-step runs inform
// expensive many-step production runs.
//
// Substitution note (see DESIGN.md): the plane matrices are synthesized
// torus-geometry stencil patterns (denser for M3D_C1's C¹ elements), the
// per-step factorization is priced by the SuperLU_DIST model on a *real*
// symbolic factorization, and ROWPERM affects GMRES iteration counts (poor
// stability → more iterations), mirroring how the real parameter acts.
package mhd

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/apps/superlu"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/space"
	"repro/internal/sparse"
)

// Variant selects the simulated application.
type Variant int

const (
	// M3DC1 uses C¹ finite elements on one poloidal plane (denser stencil,
	// β=5 tuning parameters).
	M3DC1 Variant = iota
	// NIMROD uses spectral elements with assembly block sizes nxbl/nybl as
	// two extra tuning parameters (β=7).
	NIMROD
)

// RowPermNames lists the categorical ROWPERM choices (type of row
// permutation for numerical stability).
var RowPermNames = []string{"NOROWPERM", "LargeDiag"}

// App simulates one MHD code.
type App struct {
	Variant Variant
	Machine machine.Machine
	P       int // fixed MPI process count (paper: 32 for M3D_C1, 192 for NIMROD)
	Noise   *machine.Noise

	planeN int // poloidal plane unknowns
	// SolverScale multiplies the factor/solve costs: the synthesized plane
	// matrix stands in for the real codes' much larger meshes across many
	// poloidal planes (substitution scaling, see DESIGN.md), and this factor
	// restores realistic absolute per-step solver cost (the paper's ~3.5s
	// per M3D_C1 step, ~7.5s per NIMROD step, solver-dominated).
	SolverScale float64
	// PhysicsPerStep is the non-solver per-step cost in seconds (explicit
	// advance, diagnostics).
	PhysicsPerStep float64
	once           sync.Once
	mu             sync.Mutex
	anal           map[sparse.Ordering]*sparse.Analysis
	pat            *sparse.Pattern
}

// New returns the simulator. M3D_C1 runs on 1 Cori node, NIMROD on 6, as in
// Section 6.5.
func New(v Variant) *App {
	m := machine.CoriHaswell()
	app := &App{
		Variant: v,
		Machine: m,
		anal:    make(map[sparse.Ordering]*sparse.Analysis),
	}
	switch v {
	case NIMROD:
		app.P = 6 * m.CoresPerNode
		app.planeN = 2400
		app.Noise = machine.NewNoise(0.06, 0x20d2)
		app.SolverScale = 250
		app.PhysicsPerStep = 2.0
	default:
		app.P = m.CoresPerNode
		app.planeN = 1800
		app.Noise = machine.NewNoise(0.06, 0x3a71)
		app.SolverScale = 120
		app.PhysicsPerStep = 1.0
	}
	return app
}

// Name returns the application name.
func (a *App) Name() string {
	if a.Variant == NIMROD {
		return "nimrod"
	}
	return "m3dc1"
}

func (a *App) pattern() *sparse.Pattern {
	a.once.Do(func() {
		side := int(math.Round(math.Sqrt(float64(a.planeN))))
		if a.Variant == M3DC1 {
			// C¹ elements couple second neighbors: radius-2 stencil.
			a.pat = sparse.Grid3D(side, side, 1, 2, false)
		} else {
			a.pat = sparse.Grid3D(side, side, 1, 1, false)
		}
		a.planeN = a.pat.N
	})
	return a.pat
}

func (a *App) analysis(ord sparse.Ordering) *sparse.Analysis {
	pat := a.pattern()
	a.mu.Lock()
	defer a.mu.Unlock()
	if an, ok := a.anal[ord]; ok {
		return an
	}
	an := sparse.Analyze(pat, sparse.Order(pat, ord, 11))
	a.anal[ord] = an
	return an
}

// Config holds native tuning parameters. Nxbl/Nybl are ignored for M3D_C1.
type Config struct {
	RowPerm int // 0 NOROWPERM, 1 LargeDiag
	ColPerm sparse.Ordering
	Pr      int
	NSup    int
	NRel    int
	Nxbl    int
	Nybl    int
}

// StepCost returns the modeled (noise-free) cost of one time step: assemble,
// factor the plane blocks, and run GMRES with triangular solves.
func (a *App) StepCost(cfg Config) float64 {
	an := a.analysis(cfg.ColPerm)
	n := float64(a.planeN)

	slu := superlu.Config{
		ColPerm: cfg.ColPerm,
		Look:    8,
		P:       a.P,
		Pr:      cfg.Pr,
		NSup:    cfg.NSup,
		NRel:    cfg.NRel,
	}
	tFactor, _ := superlu.ModelCost(a.Machine, n, an, slu)

	// GMRES iterations per step: LargeDiag keeps the block-Jacobi
	// preconditioner strong; NOROWPERM loses pivots and needs ~60% more
	// iterations on these indefinite MHD systems.
	iters := 14.0
	if cfg.RowPerm == 0 {
		iters *= 1.6
	}
	// Triangular solves stream the factors: memory-bound.
	fillLU := 2*float64(an.FillL) - n
	tSolve := iters * fillLU * 16 / (a.Machine.MemBandwidth * float64(a.P) / float64(a.Machine.CoresPerNode))
	// Allreduce latency per iteration.
	tSolve += iters * 2 * a.Machine.Latency * math.Log2(math.Max(float64(a.P), 2))

	// Assembly: NIMROD's nxbl/nybl block the element loops; too-small blocks
	// pay loop overhead, too-large blocks fall out of cache.
	tAssemble := n * 2000 / (a.Machine.FlopsPerCore * 0.1 * float64(a.P))
	if a.Variant == NIMROD {
		blk := float64(cfg.Nxbl * cfg.Nybl)
		if blk < 1 {
			blk = 1
		}
		overhead := (1 + 3/blk) * (1 + blk/48)
		tAssemble *= overhead
	}
	return a.SolverScale*(tFactor+tSolve) + tAssemble + a.PhysicsPerStep
}

// Runtime returns the modeled time for `steps` time steps.
func (a *App) Runtime(steps int, cfg Config) float64 {
	if steps < 1 {
		steps = 1
	}
	return 1.0 + float64(steps)*a.StepCost(cfg) // 1s startup (mesh, I/O)
}

func (a *App) configOf(x []float64) Config {
	cfg := Config{
		RowPerm: int(x[0]),
		ColPerm: sparse.Ordering(int(x[1])),
		Pr:      int(x[2]),
		NSup:    int(x[3]),
		NRel:    int(x[4]),
		Nxbl:    1,
		Nybl:    1,
	}
	if a.Variant == NIMROD && len(x) >= 7 {
		cfg.Nxbl = int(x[5])
		cfg.Nybl = int(x[6])
	}
	return cfg
}

// Problem returns the tuning problem: task = [steps], tuning per Table 2
// (β=5 for M3D_C1: ROWPERM, COLPERM, p_r, NSUP, NREL; β=7 for NIMROD adds
// nxbl, nybl).
func (a *App) Problem() *core.Problem {
	params := []space.Param{
		space.NewCategorical("ROWPERM", RowPermNames...),
		space.NewCategorical("COLPERM", sparse.OrderingNames...),
		space.NewLogInteger("pr", 1, a.P),
		space.NewLogInteger("NSUP", 8, 512),
		space.NewLogInteger("NREL", 1, 128),
	}
	if a.Variant == NIMROD {
		params = append(params,
			space.NewInteger("nxbl", 1, 8),
			space.NewInteger("nybl", 1, 8),
		)
	}
	return &core.Problem{
		Name:    a.Name(),
		Tasks:   space.MustNew(space.NewInteger("steps", 1, 50)),
		Tuning:  space.MustNew(params...),
		Outputs: space.NewOutputSpace("runtime"),
		Objective: func(task, x []float64) ([]float64, error) {
			steps := int(task[0])
			cfg := a.configOf(x)
			t := a.Runtime(steps, cfg)
			key := fmt.Sprintf("%s|%d|%+v", a.Name(), steps, cfg)
			return []float64{t * a.Noise.Mul(key)}, nil
		},
	}
}
