package bench_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	_ "repro/internal/bench/all"
)

// TestConformance runs the scenario conformance suite over every registered
// workload: problem builds and validates, spaces round-trip and respect
// bounds, constrained spaces keep a usable feasible fraction, objectives
// are construction-deterministic, and no sample beats a declared optimum.
func TestConformance(t *testing.T) {
	scs := bench.All()
	if len(scs) < 11 { // 8 app scenarios + 3 synthetic families
		t.Fatalf("registry has %d scenarios, want at least 11: %v", len(scs), bench.Names())
	}
	for _, s := range scs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if err := verify(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRegistryResolvesAliases(t *testing.T) {
	s, err := bench.Get("pdgeqrf")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "qr" {
		t.Fatalf("alias pdgeqrf resolved to %q, want qr", s.Name)
	}
}

func TestUnknownScenarioErrorEnumeratesNames(t *testing.T) {
	_, err := bench.Get("no-such-scenario")
	if err == nil {
		t.Fatal("Get of unknown scenario succeeded")
	}
	for _, want := range []string{"gemm", "qr", "recsys", "compiler-flags"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not enumerate %q", err, want)
		}
	}
}

func TestUnknownParamErrorNamesDeclared(t *testing.T) {
	s, err := bench.Get("qr")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Problem(bench.Params{"bogus": 1}); err == nil {
		t.Fatal("unknown scenario parameter accepted")
	} else if !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "nodes") {
		t.Fatalf("error %q should name the bad key and the declared parameters", err)
	}
}

func TestScenarioParamsOverrideDefaults(t *testing.T) {
	s, err := bench.Get("qr")
	if err != nil {
		t.Fatal(err)
	}
	prob, err := s.Problem(bench.Params{"nodes": 4})
	if err != nil {
		t.Fatal(err)
	}
	i := prob.Tuning.IndexOf("p")
	if i < 0 {
		t.Fatal("qr problem has no p parameter")
	}
	if hi := prob.Tuning.Params[i].Hi; hi != 4*32 {
		t.Fatalf("p upper bound %v, want 128 for nodes=4", hi)
	}
}

func TestCatalogCoversRegistry(t *testing.T) {
	infos, err := bench.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	names := bench.Names()
	if len(infos) != len(names) {
		t.Fatalf("catalog has %d entries, registry %d", len(infos), len(names))
	}
	byName := map[string]bench.Info{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	if in := byName["gemm"]; !in.Constrained || in.TuningDim != 5 || !in.HasOptimum {
		t.Fatalf("gemm catalog entry wrong: %+v", in)
	}
	if in := byName["compiler-flags"]; in.TuningDim != 40 || in.Constrained {
		t.Fatalf("compiler-flags catalog entry wrong: %+v", in)
	}
	if in := byName["superlu-mo"]; in.OutputDim != 2 {
		t.Fatalf("superlu-mo catalog entry wrong: %+v", in)
	}
}
