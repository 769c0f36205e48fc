// Package space defines the parameter spaces of the GPTune problem
// formulation (paper Section 2): the task parameter input space IS, the
// tuning parameter space PS, and the output space OS. Parameters may be
// real, integer, or categorical, and spaces may carry inequality
// constraints such as the paper's p_r ≤ p example.
//
// Internally every point has two representations:
//
//   - native: one float64 per parameter in its own units (integers hold
//     whole values, categoricals hold the category index);
//   - normalized: the unit hypercube [0,1]^d used by samplers, kernels and
//     search algorithms.
package space

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/la"
)

// Kind enumerates the parameter types supported by GPTune.
type Kind int

const (
	// Real is a continuous parameter in [Lo, Hi].
	Real Kind = iota
	// Integer is a whole-valued parameter in [Lo, Hi].
	Integer
	// Categorical is a discrete choice among Categories.
	Categorical
)

func (k Kind) String() string {
	switch k {
	case Real:
		return "real"
	case Integer:
		return "integer"
	case Categorical:
		return "categorical"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Param describes a single task or tuning parameter.
type Param struct {
	Name       string
	Kind       Kind
	Lo, Hi     float64  // bounds for Real/Integer (inclusive)
	Categories []string // labels for Categorical
	LogScale   bool     // normalize Real/Integer on a log axis (requires Lo > 0)
}

// NewReal returns a continuous parameter on [lo, hi].
func NewReal(name string, lo, hi float64) Param {
	return Param{Name: name, Kind: Real, Lo: lo, Hi: hi}
}

// NewLogReal returns a continuous parameter normalized on a log axis.
func NewLogReal(name string, lo, hi float64) Param {
	return Param{Name: name, Kind: Real, Lo: lo, Hi: hi, LogScale: true}
}

// NewInteger returns a whole-valued parameter on [lo, hi].
func NewInteger(name string, lo, hi int) Param {
	return Param{Name: name, Kind: Integer, Lo: float64(lo), Hi: float64(hi)}
}

// NewLogInteger returns an integer parameter normalized on a log axis.
func NewLogInteger(name string, lo, hi int) Param {
	return Param{Name: name, Kind: Integer, Lo: float64(lo), Hi: float64(hi), LogScale: true}
}

// NewCategorical returns a categorical parameter over the given labels.
func NewCategorical(name string, categories ...string) Param {
	return Param{Name: name, Kind: Categorical, Categories: categories}
}

// Validate reports configuration errors in the parameter definition.
func (p Param) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("space: parameter with empty name")
	}
	switch p.Kind {
	case Real, Integer:
		// A span that overflows would map every u > 0 to Hi and every native
		// value to 0 or NaN.
		switch {
		case !(p.Lo <= p.Hi) || math.IsInf(p.Lo, 0) || math.IsInf(p.Hi, 0):
			return fmt.Errorf("space: %s: bounds [%g, %g] invalid", p.Name, p.Lo, p.Hi)
		case math.IsInf(p.Hi-p.Lo, 0):
			return fmt.Errorf("space: %s: span of [%g, %g] overflows", p.Name, p.Lo, p.Hi)
		case p.LogScale && p.Lo <= 0:
			return fmt.Errorf("space: %s: log scale requires Lo > 0, got %g", p.Name, p.Lo)
		case p.LogScale && math.IsInf(p.Hi/p.Lo, 0):
			return fmt.Errorf("space: %s: log span of [%g, %g] overflows", p.Name, p.Lo, p.Hi)
		}
	case Categorical:
		if len(p.Categories) == 0 {
			return fmt.Errorf("space: %s: categorical with no categories", p.Name)
		}
	default:
		return fmt.Errorf("space: %s: unknown kind %v", p.Name, p.Kind)
	}
	return nil
}

// normalize maps a native value into [0,1].
//
// Categorical parameters use the cell-center convention: category j of k
// maps to the center (j+0.5)/k of the j-th of k equal cells of [0,1] — the
// same partition denormalize samples from. Kernel distances and sampled
// cells therefore agree: adjacent categories are 1/k apart, and a uniform
// u lands in each category with equal probability. (An earlier convention
// mapped j to j/(k−1), which placed the categories on a grid denormalize
// never inverted consistently, distorting every GP distance involving a
// categorical axis.)
func (p Param) normalize(v float64) float64 {
	switch p.Kind {
	case Categorical:
		k := len(p.Categories)
		return clamp01((v + 0.5) / float64(k))
	default:
		if p.Hi <= p.Lo { // a one-point span (Validate keeps Lo ≤ Hi)
			return 0
		}
		if p.LogScale {
			return clamp01(math.Log(v/p.Lo) / math.Log(p.Hi/p.Lo))
		}
		return clamp01((v - p.Lo) / (p.Hi - p.Lo))
	}
}

// denormalize maps u ∈ [0,1] back to a native value (a whole value for
// Integer, a category index for Categorical).
//
// Integer parameters partition [0,1] into Hi−Lo+1 equal cells and take the
// cell index: Lo + ⌊u·(Hi−Lo+1)⌋, clamped. Under uniform u every integer —
// endpoints included — receives mass 1/(Hi−Lo+1). (The earlier
// Round(Lo + u·(Hi−Lo)) gave Lo and Hi half the mass of interior values,
// skewing LHS initial designs away from the bounds.) Log-scale integers
// keep rounding on the exponential curve: their cells are intentionally
// non-uniform in u, so there is no equal-mass partition to preserve.
//
// NaN maps to 0, like the lower bound: clamp01 passes it through, and it
// would denormalize to NaN, or for a categorical to the index int(NaN·k).
// normalize keeps NaN, so bad native input still reaches the finiteness
// checks downstream.
func (p Param) denormalize(u float64) float64 {
	if math.IsNaN(u) {
		u = 0
	}
	u = clamp01(u)
	switch p.Kind {
	case Categorical:
		k := len(p.Categories)
		idx := int(u * float64(k))
		if idx >= k {
			idx = k - 1
		}
		return float64(idx)
	case Integer:
		if p.LogScale {
			return clampRange(math.Round(p.Lo*la.Pow(p.Hi/p.Lo, u)), p.Lo, p.Hi)
		}
		return clampRange(p.Lo+math.Floor(u*(p.Hi-p.Lo+1)), p.Lo, p.Hi)
	default:
		if p.LogScale {
			return clampRange(p.Lo*la.Pow(p.Hi/p.Lo, u), p.Lo, p.Hi)
		}
		return clampRange(p.Lo+u*(p.Hi-p.Lo), p.Lo, p.Hi)
	}
}

func clamp01(u float64) float64 { return clampRange(u, 0, 1) }

func clampRange(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Constraint is a named feasibility predicate over a native point, one
// value per parameter in the space's order. Its author resolves the
// positions it reads once, by IndexOf, when building it; the paper's PDGEQRF
// example p_r ≤ p is
//
//	pr, p := s.IndexOf("pr"), s.IndexOf("p")
//	s.AddConstraint("pr<=p", func(x []float64) bool { return x[pr] <= x[p] })
type Constraint struct {
	Name string
	Ok   func(native []float64) bool
}

// Space is an ordered collection of parameters plus constraints. It
// implements the paper's IS and PS spaces.
type Space struct {
	Params      []Param
	Constraints []Constraint
	index       map[string]int
}

// New builds a Space from the given parameters, validating each.
func New(params ...Param) (*Space, error) {
	s := &Space{Params: params, index: make(map[string]int, len(params))}
	for i, p := range params {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.index[p.Name]; dup {
			return nil, fmt.Errorf("space: duplicate parameter %q", p.Name)
		}
		s.index[p.Name] = i
	}
	return s, nil
}

// MustNew is New panicking on error; for statically known-good spaces.
func MustNew(params ...Param) *Space {
	s, err := New(params...)
	if err != nil {
		panic(err)
	}
	return s
}

// AddConstraint appends a feasibility predicate.
func (s *Space) AddConstraint(name string, ok func(native []float64) bool) {
	s.Constraints = append(s.Constraints, Constraint{Name: name, Ok: ok})
}

// Dim returns the number of parameters (the paper's α or β).
func (s *Space) Dim() int { return len(s.Params) }

// IndexOf returns the position of the named parameter, or -1.
func (s *Space) IndexOf(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Normalize maps native values into the unit hypercube, in a new slice.
func (s *Space) Normalize(native []float64) []float64 {
	u := make([]float64, len(native))
	s.NormalizeInto(u, native)
	return u
}

// NormalizeInto writes the unit-hypercube image of native into dst, which
// must have length Dim; it allocates nothing, for search inner loops.
//
//gptlint:hotpath
func (s *Space) NormalizeInto(dst, native []float64) {
	s.checkLen(native)
	if len(dst) != len(native) {
		panic("space: NormalizeInto: dst length mismatch")
	}
	for i, p := range s.Params {
		dst[i] = p.normalize(native[i])
	}
}

// Denormalize maps a unit-hypercube point into native values, in a new
// slice.
func (s *Space) Denormalize(u []float64) []float64 {
	v := make([]float64, len(u))
	s.DenormalizeInto(v, u)
	return v
}

// DenormalizeInto writes the native image of u into dst, which must have
// length Dim; it allocates nothing, for search inner loops.
//
//gptlint:hotpath
func (s *Space) DenormalizeInto(dst, u []float64) {
	s.checkLen(u)
	if len(dst) != len(u) {
		panic("space: DenormalizeInto: dst length mismatch")
	}
	for i, p := range s.Params {
		dst[i] = p.denormalize(u[i])
	}
}

// Feasible reports whether the native point satisfies every constraint. It
// allocates nothing: the search checks every candidate through it.
//
//gptlint:hotpath
func (s *Space) Feasible(native []float64) bool {
	if len(s.Constraints) == 0 {
		return true
	}
	s.checkLen(native)
	for _, c := range s.Constraints {
		if !c.Ok(native) {
			return false
		}
	}
	return true
}

// Round snaps a native point to the grid implied by Integer/Categorical
// parameters and clips to bounds.
func (s *Space) Round(native []float64) []float64 {
	s.checkLen(native)
	out := make([]float64, len(native))
	for i, p := range s.Params {
		v := native[i]
		switch p.Kind {
		case Integer:
			out[i] = clampRange(math.Round(v), p.Lo, p.Hi)
		case Categorical:
			out[i] = clampRange(math.Round(v), 0, float64(len(p.Categories)-1))
		default:
			out[i] = clampRange(v, p.Lo, p.Hi)
		}
	}
	return out
}

// Describe formats a native point as "name=value" pairs, resolving
// categorical indices to their labels.
func (s *Space) Describe(native []float64) string {
	s.checkLen(native)
	parts := make([]string, len(native))
	for i, p := range s.Params {
		switch p.Kind {
		case Categorical:
			idx := int(native[i])
			if idx < 0 || idx >= len(p.Categories) {
				parts[i] = fmt.Sprintf("%s=<invalid %v>", p.Name, native[i])
			} else {
				parts[i] = fmt.Sprintf("%s=%s", p.Name, p.Categories[idx])
			}
		case Integer:
			parts[i] = fmt.Sprintf("%s=%d", p.Name, int(native[i]))
		default:
			parts[i] = fmt.Sprintf("%s=%g", p.Name, native[i])
		}
	}
	return strings.Join(parts, " ")
}

func (s *Space) checkLen(v []float64) {
	if len(v) != len(s.Params) {
		panic(fmt.Sprintf("space: point has %d values, space has %d parameters", len(v), len(s.Params)))
	}
}

// Output describes one scalar objective (a dimension of OS).
type Output struct {
	Name     string
	Minimize bool // all paper objectives are minimized
}

// OutputSpace is the paper's OS with dimension γ.
type OutputSpace struct {
	Outputs []Output
}

// NewOutputSpace returns an OutputSpace of minimized objectives.
func NewOutputSpace(names ...string) *OutputSpace {
	os := &OutputSpace{Outputs: make([]Output, len(names))}
	for i, n := range names {
		os.Outputs[i] = Output{Name: n, Minimize: true}
	}
	return os
}

// Dim returns γ, the number of objectives.
func (o *OutputSpace) Dim() int { return len(o.Outputs) }
