package scalapack

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
)

// The two ScaLAPACK scenarios self-register with the workload registry;
// their parameter defaults are the configurations cmd/gptune historically
// hard-coded.
func init() {
	bench.Register(bench.Scenario{
		Name:        "qr",
		Aliases:     []string{"pdgeqrf"},
		Description: "ScaLAPACK PDGEQRF dense QR (Section 6.2): block size and process grid with the paper's pr<=p constraint",
		Params: []bench.ParamDef{
			{Name: "nodes", Default: 16, Help: "Cori-Haswell nodes (32 cores each)"},
			{Name: "maxdim", Default: 20000, Help: "upper bound on the task dimensions m, n"},
		},
		New: func(p bench.Params) (*core.Problem, error) {
			nodes, maxdim, err := nodesMaxdim(p)
			if err != nil {
				return nil, err
			}
			return NewQR(nodes, maxdim).Problem(), nil
		},
	})
	bench.Register(bench.Scenario{
		Name:        "eigen",
		Aliases:     []string{"pdsyevx"},
		Description: "ScaLAPACK PDSYEVX dense symmetric eigensolver (Section 6.2), pr<=p constraint",
		Params: []bench.ParamDef{
			{Name: "nodes", Default: 1, Help: "Cori-Haswell nodes (32 cores each)"},
			{Name: "maxdim", Default: 7000, Help: "upper bound on the task dimension m"},
		},
		New: func(p bench.Params) (*core.Problem, error) {
			nodes, maxdim, err := nodesMaxdim(p)
			if err != nil {
				return nil, err
			}
			return NewEigen(nodes, maxdim).Problem(), nil
		},
	})
}

func nodesMaxdim(p bench.Params) (nodes, maxdim int, err error) {
	nodes, maxdim = int(p["nodes"]), int(p["maxdim"])
	if nodes < 1 {
		return 0, 0, fmt.Errorf("nodes must be >= 1, got %v", p["nodes"])
	}
	if maxdim < 1000 {
		return 0, 0, fmt.Errorf("maxdim must be >= 1000 (task dims start at 1000), got %v", p["maxdim"])
	}
	return nodes, maxdim, nil
}
