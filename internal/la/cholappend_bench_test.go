package la

import (
	"math/rand"
	"testing"
)

// benchAppendSetup factors the leading n×n block of an (n+1)×(n+1) SPD
// matrix and returns the factor plus the row to append.
func benchAppendSetup(n int) (*TriPacked, []float64, float64) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, n+1)
	l, err := Cholesky(subMatrix(a, n))
	if err != nil {
		panic(err)
	}
	return PackChol(l), a.Row(n)[:n], a.At(n, n)
}

// BenchmarkCholAppendRow400 measures the O(n²) incremental extension at the
// same order as BenchmarkCholInverse400, so the two costs in the modeling
// phase read off the same table.
func BenchmarkCholAppendRow400(b *testing.B) {
	tp, col, diag := benchAppendSetup(400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := tp.Clone()
		if _, err := appendRow(t, col, diag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCholeskyFull400 is the refit-from-scratch baseline the append
// path replaces: a full O(n³) factorization at the same order.
func BenchmarkCholeskyFull400(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomSPD(rng, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}
