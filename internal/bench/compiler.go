package bench

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/space"
)

// The "compiler-flags" scenario tunes a 40-parameter compiler configuration
// — an optimization level, five numeric/categorical codegen knobs, and 34
// boolean pass toggles — for one of six synthetic programs (the task). All
// effects are hash-derived deterministic functions of (program, flag,
// setting): each pass multiplies runtime by a program-dependent factor, a
// hash-chosen subset of pass pairs interact, and the numeric knobs have
// program-dependent interior optima (inline threshold, unroll factor,
// prefetch distance). Pass effects are gated by the optimization level, so
// -O0 flattens most of the landscape the way a real compiler does. The
// resulting space is the CATBench compiler shape: high-dimensional, almost
// entirely categorical, with strong conditional structure — and far too
// large (2^34 × numeric grid) for a known optimum.

// compilerPrograms are the task programs; each hashes to its own effect
// structure.
var compilerPrograms = []string{"cg", "fft", "nbody", "spmv", "stencil", "btree"}

// compilerPasses are the boolean pass toggles (34 of them; with the six
// knobs below the space has 40 parameters).
var compilerPasses = []string{
	"licm", "gvn", "sccp", "dce", "sroa", "slp-vectorize", "loop-fusion",
	"loop-interchange", "polly", "unroll-and-jam", "tail-dup",
	"jump-threading", "sink", "hoist", "mem2reg", "instcombine",
	"reassociate", "loop-rotate", "indvars", "loop-deletion", "early-cse",
	"ipsccp", "globalopt", "deadargelim", "argpromotion", "constmerge",
	"mergefunc", "partial-inline", "loop-distribute", "loop-versioning",
	"slsr", "nary-reassoc", "float-contract", "speculate",
}

// compilerStrongPasses is how many passes per program get a large effect
// (the rest are weak); which ones is hash-chosen per program.
const compilerStrongPasses = 6

// compilerInteractions is the number of hash-chosen interacting pass pairs
// per program.
const compilerInteractions = 12

func compilerProblem() *core.Problem {
	tasks := space.MustNew(
		space.NewCategorical("program", compilerPrograms...),
		space.NewReal("scale", 0.5, 2),
	)
	params := []space.Param{
		space.NewCategorical("opt", "O0", "O1", "O2", "O3"),
		space.NewLogInteger("inline-threshold", 10, 2000),
		space.NewInteger("unroll", 1, 16),
		space.NewCategorical("vector-width", "1", "2", "4", "8"),
		space.NewInteger("prefetch-dist", 0, 64),
		space.NewCategorical("regalloc", "linear", "greedy", "pbqp"),
	}
	for _, pass := range compilerPasses {
		params = append(params, space.NewCategorical(pass, "off", "on"))
	}
	tuning := space.MustNew(params...)
	return &core.Problem{
		Name:    "compiler-flags",
		Tasks:   tasks,
		Tuning:  tuning,
		Outputs: space.NewOutputSpace("runtime"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{compilerRuntime(task, x)}, nil
		},
	}
}

// compilerRuntime is the deterministic modeled runtime in seconds.
func compilerRuntime(task, x []float64) float64 {
	prog := compilerPrograms[int(task[0])]
	scale := task[1]

	// Base cost of the program at this input scale.
	base := (1.2 + 0.7*hash01(prog, "base")) *
		la.Pow(scale, 0.8+0.5*hash01(prog, "scale-exp"))

	// Log-runtime effects accumulate in s; runtime = base * exp(s).
	s := 0.0

	// Optimization level: lower levels are slower and also gate how much
	// the individual passes matter.
	optLevels := [...]float64{0.6, 0.25, 0.05, 0}
	opt := int(x[0])
	s += optLevels[opt] * (1 + 0.3*hashPM(prog, "opt", strconv.Itoa(opt)))
	gate := [...]float64{0.15, 0.6, 1, 1}[opt]

	// Inline threshold: quadratic in log space around a program-dependent
	// sweet spot.
	thStar := 60 * la.Pow(10, hash01(prog, "inline-star")) // 60..600
	dTh := math.Log10(x[1] / thStar)
	s += gate * 0.08 * dTh * dTh

	// Unroll factor: U-shaped around u* in [2, 8].
	uStar := 2 + 6*hash01(prog, "unroll-star")
	dU := (x[2] - uStar) / 15
	s += gate * 0.5 * dU * dU

	// Vector width and register allocator: hash-derived per-program offsets.
	s += gate * 0.12 * hash01(prog, "vw", strconv.Itoa(int(x[3])))
	s += gate * 0.06 * hash01(prog, "ra", strconv.Itoa(int(x[5])))

	// Prefetch distance: quadratic around d* in [8, 56].
	dStar := 8 + 48*hash01(prog, "prefetch-star")
	dP := (x[4] - dStar) / 64
	s += gate * 0.3 * dP * dP

	// Boolean passes: each contributes a signed program-dependent effect
	// when enabled; a hash-chosen few are strong.
	const passBase = 6 // index of the first pass toggle in x
	for i, pass := range compilerPasses {
		if x[passBase+i] < 0.5 {
			continue
		}
		strength := 0.03
		if hashU64(prog, "strong", pass)%uint64(len(compilerPasses)) < compilerStrongPasses {
			strength = 0.12
		}
		s += gate * strength * hashNorm(prog, "pass", pass)
	}

	// Pairwise interactions among hash-chosen pass pairs: an extra effect
	// when both are enabled.
	for j := 0; j < compilerInteractions; j++ {
		tag := strconv.Itoa(j)
		a := int(hashU64(prog, "ia", tag) % uint64(len(compilerPasses)))
		b := int(hashU64(prog, "ib", tag) % uint64(len(compilerPasses)))
		if a == b {
			continue
		}
		if x[passBase+a] > 0.5 && x[passBase+b] > 0.5 {
			s += gate * 0.05 * hashNorm(prog, "pair", tag)
		}
	}

	return base * la.Exp(s)
}

func init() {
	Register(Scenario{
		Name:        "compiler-flags",
		Aliases:     []string{"compiler"},
		Description: fmt.Sprintf("%d-parameter compiler configuration (opt level, codegen knobs, %d pass toggles) over %d synthetic programs", 6+len(compilerPasses), len(compilerPasses), len(compilerPrograms)),
		New: func(p Params) (*core.Problem, error) {
			return compilerProblem(), nil
		},
	})
}
