package la

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkCholeskyJitterInto and BenchmarkCholInverseInto time the two
// O(n³) steps of one LCM likelihood evaluation, at one worker and the LCM's
// 64-row block: n = 72 is a tune_cold-sized fit (one block and a sliver), n =
// 512 a tune_warm-sized one. The factorization's n384_b* cases are the
// block-size ablation: blocks of 16, 64 and 128 rows over 4 workers.
func BenchmarkCholeskyJitterInto(b *testing.B) {
	for _, c := range []struct {
		name              string
		n, block, workers int
	}{{"n72", 72, 64, 1}, {"n512", 512, 64, 1}, {"n384_b16_w4", 384, 16, 4}, {"n384_b64_w4", 384, 64, 4}, {"n384_b128_w4", 384, 128, 4}} {
		b.Run(c.name, func(b *testing.B) {
			a := randomSPD(rand.New(rand.NewSource(1)), c.n)
			l := NewMatrix(c.n, c.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CholeskyJitterInto(l, a, 0, c.block, c.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCholInverseInto(b *testing.B) {
	for _, n := range []int{72, 512} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			l, err := ParallelCholesky(randomSPD(rand.New(rand.NewSource(1)), n), n, 1)
			if err != nil {
				b.Fatal(err)
			}
			wt, inv := NewMatrix(n, n), NewMatrix(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ParallelCholInverseInto(l, 1, wt, inv)
			}
		})
	}
}
