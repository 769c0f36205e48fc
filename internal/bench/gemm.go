package bench

import (
	"math"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/space"
)

// The "gemm" scenario tunes the cache/register blocking of a BLIS-style
// blocked GEMM: macro tiles MC×KC (A block, packed for L2), KC×NC (B panel,
// streamed through L3) and an MR×NR register micro-kernel. Runtime comes
// from an analytic cost model — micro-kernel efficiency with register
// pressure, memory traffic per blocking level, cache-capacity penalties,
// loop overhead, and edge padding from partial micro-tiles — which gives the
// space the real kernel-tuning structure: interior optima in every tile
// size and genuine divisibility constraints (MC % MR == 0, NC % NR == 0,
// the classic "macro tile holds whole micro tiles" requirement). The
// constraints leave only ~8% of the box feasible, exercising constrained
// rejection sampling and feasibility filtering end to end. The model is
// noise-free, so the scenario has an exact known optimum by enumeration of
// the feasible grid.
const (
	gemmTileLo  = 16
	gemmTileHi  = 256
	gemmMicroLo = 2
	gemmMicroHi = 6
	// Cache capacity budgets, in 8-byte words: the packed A block (MC·KC)
	// should fit ~3/4 of a 256 KiB L2, the micro panels (KC·(MR+NR)) in
	// ~3/4 of a 32 KiB L1, the B panel (KC·NC) in a 20 MiB L3 half.
	gemmL1Words = 3072.0
	gemmL2Words = 24576.0
	gemmL3Words = 1.31e6
	// Per-macro-tile loop/packing overhead (seconds).
	gemmLoopOverhead = 20e-9
)

var gemmMachine = machine.CoriHaswell()

// gemmMicroEff models single-core micro-kernel efficiency: small MR×NR
// tiles stall on FMA latency, large ones spill accumulator registers, and
// lopsided tiles waste load bandwidth — an interior optimum near 4×4.
func gemmMicroEff(mr, nr int) float64 {
	r := float64(mr * nr)
	eff := 0.95 * r / (r + 6) / (1 + (r/36)*(r/36))
	aspect := (float64(mr) + float64(nr)) / (2 * math.Sqrt(r))
	return eff / math.Sqrt(aspect)
}

// gemmTime is the noise-free modeled runtime of an M×N×K GEMM with the
// given blocking, shared verbatim by the objective and the optimum
// enumeration.
func gemmTime(m, n, k float64, mc, nc, kc, mr, nr int) float64 {
	fmr, fnr := float64(mr), float64(nr)
	mi := math.Ceil(m/fmr) * fmr
	ni := math.Ceil(n/fnr) * fnr
	pad := (mi * ni) / (m * n) // wasted flops on edge micro-tiles
	tCompute := 2 * m * n * k * pad / (gemmMachine.FlopsPerCore * gemmMicroEff(mr, nr))

	fmc, fnc, fkc := float64(mc), float64(nc), float64(kc)
	rowBlocks := math.Ceil(m / fmc)
	colBlocks := math.Ceil(n / fnc)
	kBlocks := math.Ceil(k / fkc)
	// A re-packed per NC panel, B re-streamed per MC row block, C updated
	// once per KC pass.
	words := m*k*colBlocks + n*k*rowBlocks + 2*m*n*kBlocks
	tMem := 8 * words / gemmMachine.MemBandwidth

	overL1 := math.Max(0, fkc*(fmr+fnr)/gemmL1Words-1)
	overL2 := math.Max(0, fmc*fkc/gemmL2Words-1)
	overL3 := math.Max(0, fkc*fnc/gemmL3Words-1)
	tCompute *= 1 + 0.8*overL1 + 0.35*overL2 + 0.15*overL3

	tLoop := gemmLoopOverhead * rowBlocks * colBlocks * kBlocks
	return tCompute + tMem + tLoop
}

func gemmProblem() *core.Problem {
	tasks := space.MustNew(
		space.NewLogInteger("m", 256, 8192),
		space.NewLogInteger("n", 256, 8192),
		space.NewLogInteger("k", 256, 8192),
	)
	tuning := space.MustNew(
		space.NewLogInteger("MC", gemmTileLo, gemmTileHi),
		space.NewLogInteger("NC", gemmTileLo, gemmTileHi),
		space.NewLogInteger("KC", gemmTileLo, gemmTileHi),
		space.NewInteger("MR", gemmMicroLo, gemmMicroHi),
		space.NewInteger("NR", gemmMicroLo, gemmMicroHi),
	)
	// Native values are exact small integers, so math.Mod is exact.
	mc, nc := tuning.IndexOf("MC"), tuning.IndexOf("NC")
	mr, nr := tuning.IndexOf("MR"), tuning.IndexOf("NR")
	tuning.AddConstraint("MC%MR==0", func(x []float64) bool {
		return math.Mod(x[mc], x[mr]) == 0
	})
	tuning.AddConstraint("NC%NR==0", func(x []float64) bool {
		return math.Mod(x[nc], x[nr]) == 0
	})
	return &core.Problem{
		Name:    "gemm",
		Tasks:   tasks,
		Tuning:  tuning,
		Outputs: space.NewOutputSpace("runtime"),
		Objective: func(task, x []float64) ([]float64, error) {
			t := gemmTime(task[0], task[1], task[2],
				int(x[0]), int(x[1]), int(x[2]), int(x[3]), int(x[4]))
			return []float64{t}, nil
		},
	}
}

// gemmOptimum enumerates the full feasible grid (~30M points, under two
// seconds) — exact because the model is noise-free and every tuning
// parameter is discrete.
func gemmOptimum(task []float64) (float64, bool) {
	m, n, k := task[0], task[1], task[2]
	best := math.Inf(1)
	for mr := gemmMicroLo; mr <= gemmMicroHi; mr++ {
		mcLo := (gemmTileLo + mr - 1) / mr * mr
		for nr := gemmMicroLo; nr <= gemmMicroHi; nr++ {
			ncLo := (gemmTileLo + nr - 1) / nr * nr
			for mc := mcLo; mc <= gemmTileHi; mc += mr {
				for nc := ncLo; nc <= gemmTileHi; nc += nr {
					for kc := gemmTileLo; kc <= gemmTileHi; kc++ {
						if t := gemmTime(m, n, k, mc, nc, kc, mr, nr); t < best {
							best = t
						}
					}
				}
			}
		}
	}
	return best, true
}

func init() {
	Register(Scenario{
		Name:        "gemm",
		Aliases:     []string{"gemm-tiling"},
		Description: "blocked-GEMM cache/register tiling with divisibility constraints (MC%MR==0, NC%NR==0); exact enumerated optimum",
		New: func(p Params) (*core.Problem, error) {
			return gemmProblem(), nil
		},
		Optimum: gemmOptimum,
	})
}
