package mhd

import (
	"repro/internal/bench"
	"repro/internal/core"
)

func init() {
	bench.Register(bench.Scenario{
		Name:        "m3dc1",
		Description: "M3D-C1 fusion MHD time step dominated by SuperLU_DIST solves (Section 6.6 transfer-learning workload)",
		New: func(p bench.Params) (*core.Problem, error) {
			return New(M3DC1).Problem(), nil
		},
	})
	bench.Register(bench.Scenario{
		Name:        "nimrod",
		Description: "NIMROD fusion MHD time step, the related task M3D-C1 history transfers to (Section 6.6)",
		New: func(p bench.Params) (*core.Problem, error) {
			return New(NIMROD).Problem(), nil
		},
	})
}
