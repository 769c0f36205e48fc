package la

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCholeskyBlockSize is the factorization's block-size ablation:
// CholeskyJitterPackedInto at n = 384 with blocks of 16, 64 and 128 rows over
// 4 workers.
func BenchmarkCholeskyBlockSize(b *testing.B) {
	const n = 384
	a := PackChol(randomSPD(rand.New(rand.NewSource(1)), n))
	l := NewTriPacked(n, nil)
	for _, block := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("n%d_b%d_w4", n, block), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CholeskyJitterPackedInto(l, a, 0, block, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCholeskyJitterPackedInto and BenchmarkCholInversePackedInto
// time the two O(n³) steps of one LCM likelihood evaluation through the
// engine's entry points — packed Σ into a reused packed factor, then the
// packed factor into reused packed W and Σ⁻¹ — at one worker and the LCM's
// 64-row block, per tier: n = 24 and 72 are tune_cold-sized fits, n = 510 a
// tune_warm-sized one. The factor also runs n = 74, whose last block ends in
// a lone row pair (74 − 64 ≡ 2 mod 4).
func BenchmarkCholeskyJitterPackedInto(b *testing.B) {
	for _, n := range []int{24, 72, 74, 510} {
		a := PackChol(randomSPD(rand.New(rand.NewSource(1)), n))
		l := NewTriPacked(n, nil)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchTiers(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := CholeskyJitterPackedInto(l, a, 0, 64, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkCholInversePackedInto(b *testing.B) {
	for _, n := range []int{24, 72, 510} {
		packed := NewTriPacked(n, nil)
		if _, err := CholeskyJitterPackedInto(packed, PackChol(randomSPD(rand.New(rand.NewSource(1)), n)), 0, n, 1); err != nil {
			b.Fatal(err)
		}
		wt, inv := make([]float64, len(packed.data)), make([]float64, len(packed.data))
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			benchTiers(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					CholInversePackedInto(packed, 1, wt, inv)
				}
			})
		})
	}
}

// benchTiers runs fn as one sub-benchmark per tier this build on this CPU
// can run, on that tier's bodies: the AVX2 tier is the AVX-512 one's
// baseline, timed in the same binary.
func benchTiers(b *testing.B, fn func(b *testing.B)) {
	for _, tr := range tiersHere() {
		b.Run(tr.String(), func(b *testing.B) { withTier(tr, func() { fn(b) }) })
	}
}

// BenchmarkForwardSubst is one forward solve against a packed factor — the
// variance solve of a prediction — with one right-hand side and with the
// four a PredictBatchInto group carries, at n = 72 (tune_cold) and n = 540
// (tune_warm), per tier. Each iteration restores the right-hand sides
// first; that copy is n·rhs doubles against the solve's n²·rhs/2 products.
func BenchmarkForwardSubst(b *testing.B) {
	for _, n := range []int{72, 540} {
		l, err := ParallelCholesky(randomSPD(rand.New(rand.NewSource(1)), n), n, 1)
		if err != nil {
			b.Fatal(err)
		}
		tp := PackChol(l)
		for _, k := range []int{1, MaxRHS} {
			rng := rand.New(rand.NewSource(2))
			src, bs := make([][]float64, k), make([][]float64, k)
			for j := range src {
				src[j] = kernelInput(rng, n, 0, false)
				bs[j] = make([]float64, n)
			}
			b.Run(fmt.Sprintf("n%d_rhs%d", n, k), func(b *testing.B) {
				benchTiers(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for j, s := range src {
							copy(bs[j], s)
						}
						tp.ForwardSubst(bs...)
					}
				})
			})
		}
	}
}

// BenchmarkLaneKernels times the four lane kernels that have an AVX-512
// body, per tier, at the shape of one prediction's k* with β = 8:
// NegSqDistInto over one latent's row, ExpInto over two latents' kernel
// arguments in place, WeightedSumsInto over a row of the covariance
// assembly, and SqDiffsInto filling that row's squared differences, one row
// of n per dimension. n = 510 is tune_warm's history; 37, 71 and 509 end in
// a partial block on either tier, as tune_cold's short rows (n − r pairs)
// mostly do.
func BenchmarkLaneKernels(b *testing.B) {
	const dim = 8
	for _, n := range []int{37, 71, 509, 510} {
		rng := rand.New(rand.NewSource(3))
		x := kernelInput(rng, dim*n, 0, false)
		w, pt := make([]float64, dim), make([]float64, dim)
		for d := range w {
			w[d], pt[d] = 0.5+rng.Float64(), rng.NormFloat64()
		}
		args, dst, sq := make([]float64, 2*n), make([]float64, 2*n), make([]float64, dim*n)
		for i := range args {
			args[i] = -30 * rng.Float64()
		}
		for _, c := range []struct {
			name string
			fn   func()
		}{
			{"negsqdist", func() { NegSqDistInto(dst[:n], w, pt, x, n) }},
			{"exp", func() { ExpInto(dst, args) }},
			{"weightedsums", func() { WeightedSumsInto(dst[:n], w, x, n, -0.5) }},
			{"sqdiffs", func() { SqDiffsInto(sq, x, n, n) }},
		} {
			b.Run(fmt.Sprintf("%s_n%d", c.name, n), func(b *testing.B) {
				benchTiers(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						c.fn()
					}
				})
			})
		}
	}
}
