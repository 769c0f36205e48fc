package superlu

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
)

func init() {
	bench.Register(bench.Scenario{
		Name:        "superlu",
		Description: "SuperLU_DIST sparse LU factorization time on PARSEC matrices (Section 6.2); pr<=p constraint",
		Params: []bench.ParamDef{
			{Name: "nodes", Default: 32, Help: "Cori-Haswell nodes (32 cores each)"},
		},
		New: func(p bench.Params) (*core.Problem, error) {
			app, err := appFor(p)
			if err != nil {
				return nil, err
			}
			return app.Problem(), nil
		},
	})
	bench.Register(bench.Scenario{
		Name:        "superlu-mo",
		Description: "SuperLU_DIST multi-objective variant: factorization time and memory (Section 6.5); pr<=p constraint",
		Params: []bench.ParamDef{
			{Name: "nodes", Default: 8, Help: "Cori-Haswell nodes (32 cores each)"},
		},
		New: func(p bench.Params) (*core.Problem, error) {
			app, err := appFor(p)
			if err != nil {
				return nil, err
			}
			return app.ProblemMO(), nil
		},
	})
}

func appFor(p bench.Params) (*App, error) {
	nodes := int(p["nodes"])
	if nodes < 1 {
		return nil, fmt.Errorf("nodes must be >= 1, got %v", p["nodes"])
	}
	return New(nodes), nil
}
