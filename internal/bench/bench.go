// Package bench is the workload registry: the single source of truth for
// every tuning scenario the reproduction can run, from the paper's
// application simulators (internal/apps/*) to the synthetic-but-faithful
// CATBench-style spaces defined in this package (compiler flags, GEMM
// tiling, recommender hyperparameters).
//
// A Scenario is a named, parameterized constructor for a *core.Problem plus
// metadata: description, aliases, and — where the scenario's objective
// admits one — the known global optimum for a task. Scenarios register
// themselves in an init-time registry (the surrogate.Kinds() pattern):
// Names() is the authoritative list, Get resolves names and aliases, and
// every external restatement of the scenario list — CLI usage strings,
// catalog listings, gptuned's spec validation errors — is derived from the
// registry, never hand-maintained.
//
// The five internal/apps packages self-register, so importing an app makes
// it tunable by name; the aggregator package internal/bench/all pulls in
// everything for binaries (cmd/gptune, cmd/gptuned, the benchmark) that
// want the full catalog. The synthetic scenarios in this package register in
// their own files' init functions, so any importer of bench (notably
// internal/serve) always has them available.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// Params parameterizes a scenario's constructor (machine size, matrix
// bounds, ...). Values are float64 for uniformity with the rest of the
// system; integral parameters are truncated by the constructor.
type Params map[string]float64

// ParamDef declares one scenario parameter and its default.
type ParamDef struct {
	Name    string
	Default float64
	Help    string
}

// Scenario is one registered workload.
type Scenario struct {
	// Name is the canonical registry key (letters, digits, '-').
	Name string
	// Description is a one-line summary for catalogs and usage strings.
	Description string
	// Aliases are alternate lookup names (e.g. the paper's routine names).
	Aliases []string
	// Params declares the constructor parameters and their defaults. Problem
	// rejects keys not declared here.
	Params []ParamDef
	// New builds the problem from a fully-merged parameter map (every
	// declared parameter present). Construction must be deterministic: two
	// problems built from equal params must evaluate equal inputs to
	// bitwise-equal outputs.
	New func(p Params) (*core.Problem, error)
	// Optimum, when non-nil, returns the known global minimum of the first
	// objective for the given native task under the default parameters, and
	// whether it is known for that task. Used for regression tables.
	Optimum func(task []float64) (float64, bool)
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Scenario{}
	aliases  = map[string]string{}
)

// Register adds a scenario to the registry. It panics on an invalid or
// duplicate registration: scenarios register from init functions, so any
// collision is a programmer error caught on first import.
func Register(s Scenario) {
	if s.Name == "" {
		panic("bench: Register with empty scenario name")
	}
	if s.New == nil {
		panic(fmt.Sprintf("bench: scenario %q has no constructor", s.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("bench: duplicate scenario %q", s.Name))
	}
	if _, dup := aliases[s.Name]; dup {
		panic(fmt.Sprintf("bench: scenario %q collides with an alias", s.Name))
	}
	sc := s
	registry[s.Name] = &sc
	for _, a := range s.Aliases {
		if _, dup := registry[a]; dup {
			panic(fmt.Sprintf("bench: alias %q collides with a scenario", a))
		}
		if _, dup := aliases[a]; dup {
			panic(fmt.Sprintf("bench: duplicate alias %q", a))
		}
		aliases[a] = s.Name
	}
}

// Names returns the sorted canonical scenario names — the authoritative
// list every catalog, usage string, and error message derives from.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns every registered scenario in Names() order.
func All() []*Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Scenario, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Get resolves a scenario by canonical name or alias. Unknown names return
// an error enumerating the valid ones.
func Get(name string) (*Scenario, error) {
	regMu.RLock()
	s, ok := registry[name]
	if !ok {
		if canon, isAlias := aliases[name]; isAlias {
			s, ok = registry[canon], true
		}
	}
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("bench: unknown scenario %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// Problem instantiates the scenario: declared defaults merged with the
// caller's overrides. Keys not declared in s.Params are rejected with an
// error naming the declared ones.
func (s *Scenario) Problem(p Params) (*core.Problem, error) {
	merged := make(Params, len(s.Params))
	declared := make([]string, len(s.Params))
	for i, d := range s.Params {
		merged[d.Name] = d.Default
		declared[i] = d.Name
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := merged[k]; !ok {
			have := "none"
			if len(declared) > 0 {
				have = strings.Join(declared, ", ")
			}
			return nil, fmt.Errorf("bench: scenario %q has no parameter %q (have %s)", s.Name, k, have)
		}
		merged[k] = p[k]
	}
	prob, err := s.New(merged)
	if err != nil {
		return nil, fmt.Errorf("bench: scenario %q: %w", s.Name, err)
	}
	return prob, nil
}

// Info is the catalog entry for one scenario: the cheap-to-compute facts a
// listing needs, derived by instantiating the problem with defaults.
type Info struct {
	Name        string
	Description string
	Aliases     []string
	Params      []ParamDef
	TaskDim     int
	TuningDim   int
	OutputDim   int
	Constrained bool
	HasOptimum  bool
}

// Info instantiates the scenario with default parameters and summarizes it.
func (s *Scenario) Info() (Info, error) {
	prob, err := s.Problem(nil)
	if err != nil {
		return Info{}, err
	}
	return Info{
		Name:        s.Name,
		Description: s.Description,
		Aliases:     s.Aliases,
		Params:      s.Params,
		TaskDim:     prob.Tasks.Dim(),
		TuningDim:   prob.Tuning.Dim(),
		OutputDim:   prob.Outputs.Dim(),
		Constrained: len(prob.Tuning.Constraints) > 0 || len(prob.Tasks.Constraints) > 0,
		HasOptimum:  s.Optimum != nil,
	}, nil
}

// Catalog summarizes every registered scenario in Names() order.
func Catalog() ([]Info, error) {
	scs := All()
	out := make([]Info, len(scs))
	for i, s := range scs {
		info, err := s.Info()
		if err != nil {
			return nil, err
		}
		out[i] = info
	}
	return out, nil
}
