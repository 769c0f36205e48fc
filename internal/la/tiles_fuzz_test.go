package la

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// tileClasses are the value classes FuzzTilesBitwise draws its order-n
// symmetric matrix from, by class mod 4: well-conditioned SPD; rank-deficient
// PSD (B·Bᵀ with ⌊n/2⌋ columns), which takes a jitter rung; indefinite, its
// last diagonal entry −n², which fails at every rung; and well-conditioned
// scaled by 2^−1000 … 2^−1059, so the entries, the products and the jitter
// rungs run through subnormals (and the inverse, where the input is
// subnormal, overflows to +Inf).
var tileClasses = []func(*rand.Rand, int) *Matrix{
	randomSPD,
	func(r *rand.Rand, n int) *Matrix {
		b := NewMatrix(n, n/2)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		return MatMulTransB(b, b)
	},
	func(r *rand.Rand, n int) *Matrix {
		a := randomSPD(r, n)
		if n > 0 {
			a.Data[n*n-1] = -float64(n * n)
		}
		return a
	},
	func(r *rand.Rand, n int) *Matrix {
		a := randomSPD(r, n)
		scale := math.Ldexp(1, -1000-r.Intn(60))
		for i := range a.Data {
			a.Data[i] *= scale
		}
		return a
	},
}

// tileRun is what one tier computes from one input: the factor, its jitter
// and error, and — when the factorization succeeded — the inverse's W and
// Σ⁻¹ and CholInverseDiag.
type tileRun struct {
	factor        []float64
	jitter        float64
	err           error
	wt, inv, diag []float64
}

// FuzzTilesBitwise: whatever the order (0 to 300), block size (4 to 128),
// worker count (1, 2 or 8) and value class (tileClasses), each vector tier
// this CPU has returns the scalar tier's bits from the packed Cholesky and
// inverse bodies — CholeskyJitterPackedInto's factor, jitter and error into
// a NaN-filled reused factor, CholInversePackedInto's W and Σ⁻¹ into a
// NaN-filled wt and the factor's own storage (the LCM engine's aliasing),
// and CholInverseDiag. The seed corpus is testdata/fuzz/FuzzTilesBitwise.
func FuzzTilesBitwise(f *testing.F) {
	f.Add(uint16(37), uint8(5), uint8(1), uint8(0), int64(1))
	f.Fuzz(func(t *testing.T, order uint16, block, workers, class uint8, seed int64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
		n := int(order % 301)
		bs := 4 + int(block)%125
		w := []int{1, 2, 8}[workers%3]
		a := PackChol(tileClasses[class%4](rand.New(rand.NewSource(seed)), n))

		run := func() (r tileRun) {
			l := NewTriPacked(n, nil)
			for i := range l.data {
				l.data[i] = math.NaN()
			}
			r.jitter, r.err = CholeskyJitterPackedInto(l, a, 0, bs, w)
			r.factor = append([]float64(nil), l.data...)
			if r.err != nil {
				return r
			}
			r.diag = CholInverseDiag(l, w)
			r.wt = make([]float64, len(l.data))
			for i := range r.wt {
				r.wt[i] = math.NaN()
			}
			r.inv = CholInversePackedInto(l, w, r.wt, l.data)
			return r
		}
		var want tileRun
		scalarOnly(func() { want = run() })
		where := fmt.Sprintf("n=%d block=%d workers=%d class=%d", n, bs, w, class%4)
		for _, tr := range tiersHere()[1:] {
			var got tileRun
			withTier(tr, func() { got = run() })
			if got.err != want.err || math.Float64bits(got.jitter) != math.Float64bits(want.jitter) {
				t.Fatalf("%s on %s: jitter %g error %v, scalar %g %v", where, tr, got.jitter, got.err, want.jitter, want.err)
			}
			if want.err != nil {
				continue
			}
			for _, c := range []struct {
				name      string
				got, want []float64
			}{
				{"factor", got.factor, want.factor},
				{"W", got.wt, want.wt},
				{"inverse", got.inv, want.inv},
				{"diagonal", got.diag, want.diag},
			} {
				for i := range c.want {
					if !sameFloat(c.got[i], c.want[i]) {
						t.Fatalf("%s on %s: %s[%d] = %#x, scalar %#x",
							where, tr, c.name, i, math.Float64bits(c.got[i]), math.Float64bits(c.want[i]))
					}
				}
			}
		}
	})
}
