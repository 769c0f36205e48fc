package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fuzzClasses are the value classes FuzzLanesBitwise draws operands from,
// one bit each of its class mask: normal values, subnormals, NaN, ±Inf,
// exp arguments below −708 (subnormal results and underflow to 0) and
// above 709 (near and past overflow), signed zeros, and magnitudes whose
// products overflow.
var fuzzClasses = []func(*rand.Rand) float64{
	func(r *rand.Rand) float64 { return r.NormFloat64() },
	func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()&(1<<52-1) | r.Uint64()&(1<<63)) },
	func(r *rand.Rand) float64 { return math.NaN() },
	func(r *rand.Rand) float64 { return math.Inf(1 - 2*r.Intn(2)) },
	func(r *rand.Rand) float64 { return -708 - 40*r.Float64() },
	func(r *rand.Rand) float64 { return 709 + 2*r.Float64() },
	func(r *rand.Rand) float64 { return math.Copysign(0, float64(1-2*r.Intn(2))) },
	func(r *rand.Rand) float64 { return (1 - 2*r.Float64()) * 1e300 },
}

// FuzzLanesBitwise: whatever the length (0 to 300), stride, dimension count
// (0 to 8), scale and values, each vector tier this CPU has returns the
// scalar tier's bits from the lane kernels — ExpInto, WeightedSumsInto,
// NegSqDistInto and SqDiffsInto, which mask their own last blocks, and
// AccumLanesInto — and writes nothing past a destination. classes selects
// fuzzClasses by bit (none: normal values only); every operand element is
// drawn from one selected class at random, so a last partial block meets
// each class too. The seed corpus is testdata/fuzz/FuzzLanesBitwise.
func FuzzLanesBitwise(f *testing.F) {
	f.Add(uint16(37), uint8(1), uint8(3), -0.5, int64(1), uint8(0xFF))
	f.Fuzz(func(t *testing.T, length uint16, pad, dims uint8, scale float64, seed int64, classes uint8) {
		n, dim := int(length%301), int(dims%9)
		stride := n + int(pad%4)
		rng := rand.New(rand.NewSource(seed))
		var picks []func(*rand.Rand) float64
		for c, gen := range fuzzClasses {
			if classes&(1<<c) != 0 {
				picks = append(picks, gen)
			}
		}
		if len(picks) == 0 {
			picks = fuzzClasses[:1]
		}
		fill := func(s []float64) []float64 {
			for i := range s {
				s[i] = picks[rng.Intn(len(picks))](rng)
			}
			return s
		}
		x := fill(make([]float64, dim*stride))
		w, pt := fill(make([]float64, dim)), fill(make([]float64, dim))
		args := fill(make([]float64, n))
		e := fill(make([]float64, 4*n))

		// run computes every kernel's outputs on the current tier.
		run := func(tier string) [][]float64 {
			out := [][]float64{guarded(n, 0), guarded(n, 1), guarded(n, 2), guarded(dim*n, 3)}
			ExpInto(out[0], args)
			WeightedSumsInto(out[1], w, x, stride, scale)
			NegSqDistInto(out[2], w, pt, x, stride)
			if n > 0 {
				SqDiffsInto(out[3], x, stride, n)
			}
			for k, o := range out {
				checkGuard(t, fmt.Sprintf("%s kernel %d", tier, k), o)
			}
			acc := make([]float64, 4*dim)
			for i := range acc {
				acc[i] = float64(i)
			}
			AccumLanesInto(acc, e, x, stride)
			return append(out, acc)
		}
		var want [][]float64
		scalarOnly(func() { want = run("scalar") })
		names := []string{"ExpInto", "WeightedSumsInto", "NegSqDistInto", "SqDiffsInto", "AccumLanesInto"}
		for _, tr := range tiersHere()[1:] {
			var got [][]float64
			withTier(tr, func() { got = run(tr.String()) })
			for k := range want {
				for i := range want[k] {
					if !sameFloat(got[k][i], want[k][i]) {
						t.Fatalf("%s on %s, n=%d dim=%d stride=%d: [%d] = %#x, scalar %#x",
							names[k], tr, n, dim, stride, i, math.Float64bits(got[k][i]), math.Float64bits(want[k][i]))
					}
				}
			}
		}
	})
}
