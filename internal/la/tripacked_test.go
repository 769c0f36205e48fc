package la

import (
	"math"
	"math/rand"
	"testing"
)

// subMatrix returns the leading n×n block of a.
func subMatrix(a *Matrix, n int) *Matrix {
	s := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(s.Row(i), a.Row(i)[:n])
	}
	return s
}

// appendRow extends the factor by one row through the blocked entry point;
// it returns the jitter added.
func appendRow(t *TriPacked, col []float64, diag float64) (float64, error) {
	return t.AppendRows(&Matrix{Rows: 1, Cols: len(col), Data: col}, &Matrix{Rows: 1, Cols: 1, Data: []float64{diag}}, 0, 1)
}

func TestPackCholRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(rng, 23)
	l, err := ParallelCholesky(a, a.Rows, 1)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	tp := PackChol(l)
	if tp.N() != 23 {
		t.Fatalf("N = %d, want 23", tp.N())
	}
	for i := 0; i < 23; i++ {
		for j, v := range tp.Row(i) {
			if math.Float64bits(v) != math.Float64bits(l.At(i, j)) {
				t.Fatalf("PackChol(l) row %d entry %d = %v, l has %v", i, j, v, l.At(i, j))
			}
		}
	}
	b := make([]float64, 23)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// The solve written out over the dense factor: forward substitution
	// row by row over Dot, then back substitution as one running
	// difference per row in column order.
	want := CopyVec(b)
	for i := range want {
		want[i] = (want[i] - Dot(l.Row(i)[:i], want[:i])) / l.At(i, i)
	}
	for i := len(want) - 1; i >= 0; i-- {
		s := want[i]
		for k := i + 1; k < len(want); k++ {
			s -= l.At(k, i) * want[k]
		}
		want[i] = s / l.At(i, i)
	}
	got := tp.SolveVec(b)
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("packed solve differs from the dense one at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestAppendRowMatchesFullCholesky is the core property test: factoring the
// leading n×n block and appending the remaining k rows one at a time must
// agree with a full Cholesky of the (n+k)×(n+k) matrix within tolerance.
func TestAppendRowMatchesFullCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k = 40, 6
	a := randomSPD(rng, n+k)
	l0, err := ParallelCholesky(subMatrix(a, n), n, 1)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	tp := PackChol(l0)
	for j := 0; j < k; j++ {
		row := a.Row(n + j)
		if jit, err := appendRow(tp, append([]float64(nil), row[:n+j]...), row[n+j]); err != nil || jit != 0 {
			t.Fatalf("append %d: jitter %v, err %v", j, jit, err)
		}
	}
	full, err := ParallelCholesky(a, a.Rows, 1)
	if err != nil {
		t.Fatalf("full Cholesky: %v", err)
	}
	for i := 0; i < n+k; i++ {
		for j := 0; j <= i; j++ {
			got, want := tp.Row(i)[j], full.At(i, j)
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("factor (%d,%d): append %v vs full %v", i, j, got, want)
			}
		}
	}
}

// TestAppendRowsBlockedBitwiseEqualsSequential pins the contract the gp layer
// builds on: one blocked AppendRows call produces the same bits as appending
// the rows one at a time, for every worker count.
func TestAppendRowsBlockedBitwiseEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, k = 37, 5
	a := randomSPD(rng, n+k)
	l0, err := ParallelCholesky(subMatrix(a, n), n, 1)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	seq := PackChol(l0)
	for j := 0; j < k; j++ {
		row := a.Row(n + j)
		if _, err := appendRow(seq, append([]float64(nil), row[:n+j]...), row[n+j]); err != nil {
			t.Fatalf("one-row append %d: %v", j, err)
		}
	}
	cols := NewMatrix(k, n)
	corner := NewMatrix(k, k)
	for j := 0; j < k; j++ {
		copy(cols.Row(j), a.Row(n + j)[:n])
		for j2 := 0; j2 <= j; j2++ {
			corner.Set(j, j2, a.At(n+j, n+j2))
		}
	}
	for _, workers := range []int{1, 4} {
		blk := PackChol(l0)
		if _, err := blk.AppendRows(cols, corner, 0, workers); err != nil {
			t.Fatalf("AppendRows(workers=%d): %v", workers, err)
		}
		if blk.N() != seq.N() {
			t.Fatalf("N mismatch: %d vs %d", blk.N(), seq.N())
		}
		for i := 0; i < blk.N(); i++ {
			for j := 0; j <= i; j++ {
				if math.Float64bits(blk.Row(i)[j]) != math.Float64bits(seq.Row(i)[j]) {
					t.Fatalf("workers=%d: blocked factor differs from sequential at (%d,%d)", workers, i, j)
				}
			}
		}
	}
}

// TestAppendRowNotPositiveDefinite: a pivot no jitter can rescue (NaN) must
// be rejected while leaving the factor untouched.
func TestAppendRowNotPositiveDefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 12
	a := randomSPD(rng, n)
	l, err := ParallelCholesky(a, a.Rows, 1)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	tp := PackChol(l)
	before := tp.Clone()
	col := append(append([]float64(nil), a.Row(n - 1)[:n-1]...), a.At(n-1, n-1))
	if _, err := appendRow(tp, col, math.NaN()); err != ErrNotPositiveDefinite {
		t.Fatalf("append error = %v, want ErrNotPositiveDefinite", err)
	}
	if tp.N() != n {
		t.Fatalf("failed append left N = %d, want %d", tp.N(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(tp.Row(i)[j]) != math.Float64bits(before.Row(i)[j]) {
				t.Fatalf("failed append mutated the factor at (%d,%d)", i, j)
			}
		}
	}
}

// TestAppendRowJitterEscalates: appending a duplicate of an existing row
// (same covariances, same diagonal) makes the pivot exactly zero; the append
// must succeed by jitter, reporting it positive, and the resulting factor must
// reconstruct the extended matrix with the jitter on the new diagonal only.
func TestAppendRowJitterEscalates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 10
	a := randomSPD(rng, n)
	l, err := ParallelCholesky(a, a.Rows, 1)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	tp := PackChol(l)
	col := append(append([]float64(nil), a.Row(n - 1)[:n-1]...), a.At(n-1, n-1))
	diag := a.At(n-1, n-1)
	jit, err := appendRow(tp, col, diag)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if jit <= 0 {
		t.Fatalf("jitter = %v, want > 0", jit)
	}
	if tp.N() != n+1 {
		t.Fatalf("N = %d, want %d", tp.N(), n+1)
	}
	// L·Lᵀ must equal the extended matrix with jit added at (n, n).
	last := tp.Row(n)
	got := Dot(last, last)
	want := diag + jit
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Fatalf("reconstructed new diagonal %v, want %v", got, want)
	}
	for j := 0; j < n; j++ {
		rj := tp.Row(j)
		rec := Dot(last[:j+1], rj)
		if math.Abs(rec-col[j]) > 1e-8*math.Max(1, math.Abs(col[j])) {
			t.Fatalf("reconstructed cross term %d: %v, want %v", j, rec, col[j])
		}
	}
}
