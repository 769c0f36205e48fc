package space

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParamValidate(t *testing.T) {
	cases := []struct {
		p  Param
		ok bool
	}{
		{NewReal("a", 0, 1), true},
		{NewReal("a", 1, 0), false},
		{NewLogReal("a", 0, 1), false},
		{NewLogReal("a", 1, 10), true},
		{NewInteger("b", 1, 5), true},
		{NewCategorical("c", "x", "y"), true},
		{Param{Name: "c", Kind: Categorical}, false},
		{Param{Kind: Real, Lo: 0, Hi: 1}, false},
	}
	for i, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() err=%v, want ok=%v", i, err, c.ok)
		}
	}
}

// TestValidateRefusesOverflowingSpan: bounds whose span (or, on a log axis,
// ratio) is not a finite float64 are refused. Accepted, [−1e308, 1e308]
// would denormalize every u > 0 to Hi and u = 0 to NaN, and normalize
// every native value to 0 or NaN.
func TestValidateRefusesOverflowingSpan(t *testing.T) {
	inf := math.Inf(1)
	for _, p := range []Param{
		NewReal("x", -1e308, 1e308),
		NewReal("x", -inf, 0),
		NewReal("x", 0, inf),
		NewReal("x", math.NaN(), 1),
		NewLogReal("x", 1e-300, 1e300),
		NewLogReal("x", 5e-324, 1),
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%v [%g, %g] log=%v: Validate accepts it", p.Kind, p.Lo, p.Hi, p.LogScale)
		}
	}
	for _, p := range []Param{
		NewReal("x", -1e307, 1e307),
		NewReal("x", math.MaxFloat64, math.MaxFloat64),
		NewLogReal("x", 1e-150, 1e150),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%v [%g, %g]: %v", p.Kind, p.Lo, p.Hi, err)
		}
		s := MustNew(p)
		for _, u := range []float64{0, 0.25, 0.5, 1} {
			x := s.Denormalize([]float64{u})
			if back := s.Normalize(x)[0]; !(x[0] >= p.Lo && x[0] <= p.Hi && back >= 0 && back <= 1) {
				t.Errorf("[%g, %g] log=%v: u %v → %v → %v", p.Lo, p.Hi, p.LogScale, u, x[0], back)
			}
		}
	}
}

func TestNewRejectsDuplicates(t *testing.T) {
	if _, err := New(NewReal("a", 0, 1), NewReal("a", 0, 2)); err == nil {
		t.Fatalf("expected duplicate-name error")
	}
}

func TestNormalizeDenormalizeRoundTrip(t *testing.T) {
	s := MustNew(
		NewReal("r", -2, 6),
		NewLogReal("lr", 1, 1024),
		NewInteger("i", 1, 16),
		NewLogInteger("li", 1, 256),
		NewCategorical("c", "a", "b", "c", "d"),
	)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		u := make([]float64, s.Dim())
		for i := range u {
			u[i] = rng.Float64()
		}
		nat := s.Denormalize(u)
		// Native values must be within bounds and on-grid.
		if nat[0] < -2 || nat[0] > 6 {
			t.Fatalf("real out of bounds: %v", nat[0])
		}
		if nat[1] < 1 || nat[1] > 1024 {
			t.Fatalf("logreal out of bounds: %v", nat[1])
		}
		if nat[2] != math.Round(nat[2]) || nat[2] < 1 || nat[2] > 16 {
			t.Fatalf("integer invalid: %v", nat[2])
		}
		if nat[4] != math.Round(nat[4]) || nat[4] < 0 || nat[4] > 3 {
			t.Fatalf("categorical invalid: %v", nat[4])
		}
		// Round-trip: normalize(denormalize(u)) then denormalize again must
		// be a fixed point (grid snap is idempotent).
		nat2 := s.Denormalize(s.Normalize(nat))
		for i := range nat {
			if math.Abs(nat[i]-nat2[i]) > 1e-9*(1+math.Abs(nat[i])) {
				t.Fatalf("round-trip drift at %d: %v vs %v", i, nat[i], nat2[i])
			}
		}
	}
}

func TestNormalizeEdges(t *testing.T) {
	p := NewReal("x", 3, 3)
	if p.normalize(3) != 0 {
		t.Fatalf("degenerate range normalize != 0")
	}
	c := NewCategorical("c", "only")
	if c.normalize(0) != 0.5 || c.denormalize(0.7) != 0 {
		t.Fatalf("single-category param mishandled: normalize=%v denormalize=%v",
			c.normalize(0), c.denormalize(0.7))
	}
}

// Regression for the categorical encoding convention mismatch: normalize
// used to map index j to j/(k−1) while denormalize partitioned [0,1] into k
// equal cells, so the point the kernel saw for category j was not in the
// cell that samples back to j. Both directions now use the cell-center
// convention: normalize(j) = (j+0.5)/k, the center of the j-th cell.
func TestCategoricalCellConsistency(t *testing.T) {
	for k := 1; k <= 7; k++ {
		cats := make([]string, k)
		for i := range cats {
			cats[i] = strings.Repeat("x", i+1)
		}
		p := NewCategorical("c", cats...)
		for j := 0; j < k; j++ {
			u := p.normalize(float64(j))
			// The normalized point must be the center of cell j …
			want := (float64(j) + 0.5) / float64(k)
			if math.Abs(u-want) > 1e-15 {
				t.Fatalf("k=%d: normalize(%d) = %v, want cell center %v", k, j, u, want)
			}
			// … and must round-trip through the cell partition.
			if got := p.denormalize(u); got != float64(j) {
				t.Fatalf("k=%d: denormalize(normalize(%d)) = %v", k, j, got)
			}
			// Consistency: the whole cell [j/k, (j+1)/k) decodes to j, so the
			// kernel point sits in the region that samples to its category.
			lo, hi := float64(j)/float64(k), (float64(j)+1)/float64(k)
			if p.denormalize(lo) != float64(j) || p.denormalize(hi-1e-12) != float64(j) {
				t.Fatalf("k=%d: cell [%v,%v) does not decode to %d", k, lo, hi, j)
			}
		}
	}
}

// Regression for the integer endpoint bias: Round(Lo + u·(Hi−Lo)) gave Lo
// and Hi half the mass of interior values under uniform u. The floor-cell
// mapping Lo + ⌊u·(Hi−Lo+1)⌋ gives every value — endpoints included — the
// same mass. Checked exactly on a deterministic grid of u values.
func TestIntegerCellUniformity(t *testing.T) {
	p := NewInteger("i", -3, 7) // 11 values
	cells := 11
	perCell := 1000
	m := cells * perCell
	counts := make(map[int]int)
	for i := 0; i < m; i++ {
		u := (float64(i) + 0.5) / float64(m)
		counts[int(p.denormalize(u))]++
	}
	for v := -3; v <= 7; v++ {
		if c := counts[v]; c < perCell-2 || c > perCell+2 {
			t.Fatalf("value %d drew %d of %d samples, want ≈ %d per value (counts %v)",
				v, c, m, perCell, counts)
		}
	}
	// Endpoints carry exactly the same mass as interior values.
	if counts[-3] != counts[2] || counts[7] != counts[2] {
		t.Fatalf("endpoint bias: Lo=%d mid=%d Hi=%d", counts[-3], counts[2], counts[7])
	}
	// Every integer in range must be reachable and round-trip.
	for v := -3; v <= 7; v++ {
		if got := p.denormalize(p.normalize(float64(v))); got != float64(v) {
			t.Fatalf("round trip of %d gave %v", v, got)
		}
	}
}

func TestConstraints(t *testing.T) {
	s := MustNew(NewInteger("p", 1, 64), NewInteger("pr", 1, 64))
	p, pr := s.IndexOf("p"), s.IndexOf("pr")
	s.AddConstraint("pr<=p", func(x []float64) bool { return x[pr] <= x[p] })
	if !s.Feasible([]float64{8, 4}) {
		t.Fatalf("8,4 should be feasible")
	}
	if s.Feasible([]float64{4, 8}) {
		t.Fatalf("4,8 should be infeasible")
	}
	if s.Feasible(s.Denormalize([]float64{0, 1})) {
		t.Fatalf("unit point (p=1, pr=64) should be infeasible")
	}
}

func TestRound(t *testing.T) {
	s := MustNew(NewReal("r", 0, 10), NewInteger("i", 0, 5), NewCategorical("c", "a", "b"))
	got := s.Round([]float64{11.2, 3.6, 1.4})
	if got[0] != 10 || got[1] != 4 || got[2] != 1 {
		t.Fatalf("Round = %v", got)
	}
}

func TestDescribe(t *testing.T) {
	s := MustNew(NewReal("r", 0, 1), NewInteger("i", 0, 9), NewCategorical("c", "amd", "rcm"))
	d := s.Describe([]float64{0.5, 3, 1})
	for _, want := range []string{"r=0.5", "i=3", "c=rcm"} {
		if !strings.Contains(d, want) {
			t.Fatalf("Describe = %q, missing %q", d, want)
		}
	}
	if !strings.Contains(s.Describe([]float64{0, 0, 9}), "invalid") {
		t.Fatalf("out-of-range categorical should describe as invalid")
	}
}

func TestIndexOf(t *testing.T) {
	s := MustNew(NewReal("a", 0, 1), NewReal("b", 0, 1))
	if s.IndexOf("b") != 1 || s.IndexOf("zz") != -1 {
		t.Fatalf("IndexOf broken")
	}
}

func TestOutputSpace(t *testing.T) {
	os := NewOutputSpace("time", "memory")
	if os.Dim() != 2 || !os.Outputs[0].Minimize || os.Outputs[1].Name != "memory" {
		t.Fatalf("OutputSpace wrong: %+v", os)
	}
}

// Property: denormalize always lands in bounds and normalize always lands in
// [0,1], for arbitrary inputs.
func TestNormalizeBoundsQuick(t *testing.T) {
	s := MustNew(
		NewReal("r", -5, 5),
		NewLogReal("lr", 0.1, 100),
		NewInteger("i", -3, 7),
		NewCategorical("c", "a", "b", "c"),
	)
	f := func(raw [4]float64) bool {
		u := make([]float64, 4)
		for i, v := range raw[:] {
			if math.IsNaN(v) {
				v = 0
			}
			u[i] = v - math.Floor(v) // wrap into [0,1)
		}
		nat := s.Denormalize(u)
		un := s.Normalize(nat)
		for i, v := range un {
			if v < 0 || v > 1 {
				t.Logf("dim %d: normalized %v out of range", i, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIntoVariantsMatch pins the allocation-free forms against their
// allocating originals on random points, and Feasible on a constrained space
// against its predicate, and asserts that the per-candidate path a search
// runs — denormalize, normalize, Feasible — allocates nothing, the property
// the hotpath-alloc lint rule enforces transitively on every search inner
// loop.
func TestIntoVariantsMatch(t *testing.T) {
	s := MustNew(NewReal("r", -3, 7), NewInteger("i", 0, 9), NewCategorical("c", "a", "b", "x"))
	r, i := s.IndexOf("r"), s.IndexOf("i")
	s.AddConstraint("i<=5ish", func(x []float64) bool { return x[i] <= 5 || x[r] > 0 })
	rng := rand.New(rand.NewSource(7))
	dst := make([]float64, s.Dim())
	nat := make([]float64, s.Dim())
	for trial := 0; trial < 200; trial++ {
		u := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		want := s.Denormalize(u)
		s.DenormalizeInto(nat, u)
		for d := range want {
			if nat[d] != want[d] {
				t.Fatalf("DenormalizeInto[%d] = %v, want %v", d, nat[d], want[d])
			}
		}
		wantU := s.Normalize(want)
		s.NormalizeInto(dst, want)
		for d := range wantU {
			if dst[d] != wantU[d] {
				t.Fatalf("NormalizeInto[%d] = %v, want %v", d, dst[d], wantU[d])
			}
		}
		if got, want := s.Feasible(nat), nat[1] <= 5 || nat[0] > 0; got != want {
			t.Fatalf("Feasible = %v, want %v at %v", got, want, nat)
		}
	}

	u := []float64{0.9, 0.1, 0.5}
	s.DenormalizeInto(nat, u)
	feasible := false
	if n := testing.AllocsPerRun(100, func() {
		s.DenormalizeInto(nat, u)
		s.NormalizeInto(dst, nat)
		feasible = s.Feasible(nat)
	}); n != 0 {
		t.Fatalf("the candidate path allocates %.1f times per candidate, want 0", n)
	}
	if !feasible {
		t.Fatal("probe point should be feasible (r > 0)")
	}
}
