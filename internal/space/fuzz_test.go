package space_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/space"
)

// FuzzSpaceRoundTrip attacks Denormalize with any float64 per coordinate —
// ±Inf, NaN, subnormals, far out of [0,1] — over the gemm and recsys tuning
// spaces (log integers, plain integers, categoricals, log and plain reals).
// The contract: nothing panics; every native value is in its parameter's
// bounds and integral where the kind asks; Normalize maps it back into
// [0,1]; and for an in-range u the round trip Denormalize∘Normalize returns
// the same native point (exactly for integers and categoricals, to rounding
// for reals).
func FuzzSpaceRoundTrip(f *testing.F) {
	var spaces []*space.Space
	for _, name := range []string{"gemm", "recsys"} {
		sc, err := bench.Get(name)
		if err != nil {
			f.Fatal(err)
		}
		p, err := sc.New(bench.Params{})
		if err != nil {
			f.Fatal(err)
		}
		spaces = append(spaces, p.Tuning)
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(0), 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
	f.Add(uint8(1), 0.0, 1.0, 0.999999, 1e-300, 0.5, 0.25, 0.75, 1.0)
	f.Add(uint8(1), nan, nan, nan, nan, nan, nan, nan, nan)
	f.Add(uint8(0), -inf, inf, nan, -0.0, 5e-324, -1e300, 1e300, 2.0)
	f.Add(uint8(1), inf, -inf, -0.5, 1.5, nan, 0.1, -0.0, 7.0)
	f.Fuzz(func(t *testing.T, which uint8, u0, u1, u2, u3, u4, u5, u6, u7 float64) {
		s := spaces[int(which)%len(spaces)]
		u := []float64{u0, u1, u2, u3, u4, u5, u6, u7}[:s.Dim()]
		x := s.Denormalize(u)
		for i, p := range s.Params {
			lo, hi := p.Lo, p.Hi
			if p.Kind == space.Categorical {
				lo, hi = 0, float64(len(p.Categories)-1)
			}
			if !(x[i] >= lo && x[i] <= hi) {
				t.Fatalf("u[%d] = %v: %s = %v outside [%v, %v]", i, u[i], p.Name, x[i], lo, hi)
			}
			if p.Kind != space.Real && x[i] != math.Trunc(x[i]) {
				t.Fatalf("u[%d] = %v: %s %s = %v is not integral", i, u[i], p.Kind, p.Name, x[i])
			}
		}
		un := s.Normalize(x)
		for i, v := range un {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("%s = %v normalizes to %v", s.Params[i].Name, x[i], v)
			}
		}
		x2 := s.Denormalize(un)
		for i, p := range s.Params {
			if !(u[i] >= 0 && u[i] <= 1) {
				continue
			}
			if p.Kind == space.Real {
				if math.Abs(x2[i]-x[i]) > 1e-9*(1+math.Abs(x[i])) {
					t.Fatalf("u[%d] = %v: %s = %v re-denormalizes to %v", i, u[i], p.Name, x[i], x2[i])
				}
			} else if x2[i] != x[i] {
				t.Fatalf("u[%d] = %v: %s %s = %v re-denormalizes to %v", i, u[i], p.Kind, p.Name, x[i], x2[i])
			}
		}
	})
}
