package hypre

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
)

func init() {
	bench.Register(bench.Scenario{
		Name:        "hypre",
		Description: "hypre AMG solve time via real proxy multigrid solves on a convection-diffusion problem (Section 6.2)",
		Params: []bench.ParamDef{
			{Name: "nodes", Default: 1, Help: "Cori-Haswell nodes (32 cores each)"},
		},
		New: func(p bench.Params) (*core.Problem, error) {
			nodes := int(p["nodes"])
			if nodes < 1 {
				return nil, fmt.Errorf("nodes must be >= 1, got %v", p["nodes"])
			}
			return New(nodes).Problem(), nil
		},
	})
}
