// Package analytical provides the paper's closed-form tuning benchmark
// (Eq. 11 of Section 6.3): a highly non-convex one-dimensional objective
//
//	y(t,x) = 1 + e^{-(x+1)^{t+1}} cos(2πx) Σ_{i=1..5} sin(2πx(t+2)^i)
//
// whose oscillation frequency grows as (t+2)^5, making large-t tasks very
// hard for black-box optimization. It is the workload of Fig. 2 (shape),
// Fig. 3 (tuner scaling), and Fig. 4 left (performance-model benefit).
// The function itself lives in the leaf package eq11 (shared with the core
// engine's tests); this package wraps it as a core.Problem and registers
// the "analytical" scenario with the workload registry.
package analytical

import (
	"math"

	"repro/internal/apps/analytical/eq11"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/space"
)

// Objective evaluates Eq. (11).
func Objective(t, x float64) float64 {
	return eq11.Objective(t, x)
}

// Problem returns the tuning problem with t ∈ [0, 10] and x ∈ [0, 1].
func Problem() *core.Problem {
	return &core.Problem{
		Name:    "analytical",
		Tasks:   space.MustNew(space.NewReal("t", 0, 10)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{Objective(task[0], x[0])}, nil
		},
	}
}

// NoisyModel returns the Section 6.4 performance model for the analytical
// function: ỹ(t,x) = (1 + amp·r(x))·y(t,x) with r(x) a deterministic
// pseudo-random standard normal keyed on x (the paper uses amp = 0.1). The
// model is a noisy oracle: informative but imperfect, exactly the Fig. 4
// (left) setup.
func NoisyModel(amp float64) *core.PerfModel {
	return &core.PerfModel{
		Dim: 1,
		Eval: func(task, x, coeffs []float64) []float64 {
			r := hashNormal(x[0])
			return []float64{(1 + amp*r) * Objective(task[0], x[0])}
		},
	}
}

// hashNormal maps x deterministically to an approximately standard normal
// value, so the model noise r(x) is a fixed function of x as in the paper.
func hashNormal(x float64) float64 {
	u := (math.Float64bits(x) + 0x632BE59BD9B4E019) * 0x9E3779B97F4A7C15
	u ^= u >> 29
	u *= 0xBF58476D1CE4E5B9
	u ^= u >> 32
	u1 := float64(u>>11)/float64(1<<53) + 1e-16
	u2 := float64((u*0x94D049BB133111EB)>>11) / float64(1<<53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// TrueMin brute-forces the global minimum over x ∈ [0,1] on a grid fine
// enough to resolve the (t+2)^5 oscillation.
func TrueMin(t float64) (x, y float64) {
	return eq11.TrueMin(t)
}

func init() {
	bench.Register(bench.Scenario{
		Name:        "analytical",
		Description: "the paper's Eq. (11) closed-form 1-D benchmark (Figs. 2-4); grid-enumerated optimum",
		New: func(p bench.Params) (*core.Problem, error) {
			return Problem(), nil
		},
		Optimum: func(task []float64) (float64, bool) {
			_, y := eq11.TrueMin(task[0])
			return y, true
		},
	})
}
