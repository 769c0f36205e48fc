package la

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randomSPD(rng *rand.Rand, n int) *Matrix {
	// A = B·Bᵀ + n·I is SPD.
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := MatMulTransB(b, b)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += float64(n)
	}
	return a
}

// maxAbsDiff returns max |a_ij - b_ij|.
func maxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("maxAbsDiff shape mismatch")
	}
	d := 0.0
	for i, v := range a.Data {
		d = math.Max(d, math.Abs(v-b.Data[i]))
	}
	return d
}

// clone returns a deep copy of m.
func clone(m *Matrix) *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// residual returns ‖a·x − b‖₂.
func residual(a *Matrix, x, b []float64) float64 {
	ss := 0.0
	for i := range b {
		r := Dot(a.Row(i), x) - b[i]
		ss += r * r
	}
	return math.Sqrt(ss)
}

func TestMatrixBasics(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Fatalf("Set did not stick")
	}
	if r := m.Row(1); len(r) != 3 || r[0] != 4 {
		t.Fatalf("Row(1) = %v", r)
	}
}

func TestMatMulAgainstHand(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	bt := &Matrix{Rows: 2, Cols: 3, Data: []float64{7, 9, 11, 8, 10, 12}} // b = btᵀ is 3×2
	c := MatMulTransB(a, bt)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if math.Abs(c.Data[i]-v) > 1e-12 {
			t.Fatalf("MatMulTransB[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(4, 3)
	c := NewMatrix(5, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range c.Data {
		c.Data[i] = rng.NormFloat64()
	}
	got := MatMulTransB(a, c)
	want := NewMatrix(4, 5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			for k := 0; k < 3; k++ {
				want.Data[i*5+j] += a.At(i, k) * c.At(j, k)
			}
		}
	}
	if maxAbsDiff(got, want) > 1e-12 {
		t.Fatalf("MatMulTransB mismatch")
	}
}

// Property: Cholesky reconstructs the original SPD matrix.
func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 7, 20, 53} {
		a := randomSPD(rng, n)
		l, err := ParallelCholesky(a, a.Rows, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := MatMulTransB(l, l)
		if d := maxAbsDiff(a, rec); d > 1e-8*float64(n) {
			t.Fatalf("n=%d: reconstruction error %v", n, d)
		}
		// L must be lower triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					t.Fatalf("upper entry (%d,%d) nonzero", i, j)
				}
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}} // eigenvalues 3, -1
	if _, err := ParallelCholesky(a, a.Rows, 1); err == nil {
		t.Fatalf("expected ErrNotPositiveDefinite")
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Singular PSD matrix: ones(3).
	a := NewMatrix(3, 3)
	for i := range a.Data {
		a.Data[i] = 1
	}
	l, jit, err := CholeskyJitterPacked(a, 1e-10, 0, 1)
	if err != nil {
		t.Fatalf("jittered factorization failed: %v", err)
	}
	if jit <= 0 {
		t.Fatalf("expected positive jitter, got %v", jit)
	}
	if l.Row(0)[0] <= 0 {
		t.Fatalf("bad factor")
	}
}

// The one escalation loop is bounded and honest about what it did, on both
// sides of the block boundary (n ≤ block runs the unblocked recurrence,
// n > block the blocked one): a recoverable matrix reports the jitter whose
// factor it returns, and an indefinite or NaN matrix costs exactly
// jitterAttempts factorizations before ErrNotPositiveDefinite. Both entry
// points run it: a dense input into a new packed factor and a packed one
// into a reused factor.
func TestCholeskyJitterBoundedAndReported(t *testing.T) {
	const block = 8
	for _, n := range []int{6, 20} {
		// Rank-one PSD: ones(n). The first pivot passes, the second is 0.
		ones := NewMatrix(n, n)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		l, jit, err := CholeskyJitterPacked(ones, 1e-10, block, 2)
		if err != nil {
			t.Fatalf("n=%d: recoverable matrix failed: %v", n, err)
		}
		into := NewTriPacked(n, nil)
		if intoJit, err := CholeskyJitterPackedInto(into, PackChol(ones), 1e-10, block, 2); err != nil || intoJit != jit {
			t.Fatalf("n=%d: packed input took jitter %g (%v), dense input %g", n, intoJit, err, jit)
		}
		// Attempts run at jitter 0, 1e-10, 1e-9, …; the reported jitter must be
		// one of those and must be the one the returned factor was built with.
		if jit < 1e-10 || jit > 1e-10*1e10 {
			t.Fatalf("n=%d: reported jitter %g outside the escalation ladder", n, jit)
		}
		shifted := clone(ones)
		for i := 0; i < n; i++ {
			shifted.Data[i*n+i] += jit
		}
		want, err := ParallelCholesky(shifted, block, 1)
		if err != nil {
			t.Fatalf("n=%d: reported jitter %g does not factor: %v", n, jit, err)
		}
		for i, v := range PackChol(want).data {
			if v != l.data[i] || v != into.data[i] {
				t.Fatalf("n=%d: factor is not that of a + %g·I", n, jit)
			}
		}
		if jit > 1e-10 {
			// A smaller rung must have failed, or the loop skipped one.
			prev := clone(ones)
			for i := 0; i < n; i++ {
				prev.Data[i*n+i] += jit / 10
			}
			if _, err := ParallelCholesky(prev, block, 1); err == nil {
				t.Fatalf("n=%d: jitter %g reported but %g already factors", n, jit, jit/10)
			}
		}

		// Indefinite beyond every rung of the ladder (the last rung adds
		// 1e-10·10¹⁰ = 1 times the mean diagonal): unit diagonal, last pivot −100.
		indef := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			indef.Data[i*n+i] = 1
		}
		indef.Data[n*n-1] = -100
		nan := clone(indef)
		nan.Data[n*n-1] = math.NaN()
		for name, a := range map[string]*Matrix{"indefinite": indef, "NaN": nan} {
			l, jit, err := CholeskyJitterPacked(a, 1e-10, block, 2)
			if err != ErrNotPositiveDefinite || l != nil {
				t.Fatalf("n=%d %s: got factor %v, err %v; want ErrNotPositiveDefinite", n, name, l != nil, err)
			}
			intoJit, err := CholeskyJitterPackedInto(NewTriPacked(n, nil), PackChol(a), 1e-10, block, 2)
			if err != ErrNotPositiveDefinite || math.Float64bits(intoJit) != math.Float64bits(jit) {
				t.Fatalf("n=%d %s: packed input gave up at jitter %g (%v), dense input at %g", n, name, intoJit, err, jit)
			}
			if name == "NaN" {
				continue // the jitter scale is NaN too; only the bound matters
			}
			// Attempt 0 runs bare and every failure escalates once, so giving up
			// after jitterAttempts leaves the jitter on rung jitterAttempts.
			want := 1e-10 * ((float64(n-1) + 100) / float64(n))
			for k := 1; k < jitterAttempts; k++ {
				want *= 10
			}
			if jit != want {
				t.Fatalf("n=%d: gave up at jitter %g, want %g after %d attempts", n, jit, want, jitterAttempts)
			}
		}
	}
}

// Property: SolveVec returns x with A·x = b.
func TestSolveCholVecResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 5, 17, 40} {
		a := randomSPD(rng, n)
		l, err := ParallelCholesky(a, a.Rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := PackChol(l).SolveVec(b)
		if r := residual(a, x, b); r > 1e-8*math.Sqrt(Dot(b, b))*float64(n) {
			t.Fatalf("n=%d: residual %v", n, r)
		}
	}
}

func TestCholInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 15
	a := randomSPD(rng, n)
	l, _ := ParallelCholesky(a, a.Rows, 1)
	inv := ParallelCholInverse(l, 1)
	prod := MatMulTransB(a, inv) // A⁻¹ is symmetric
	for i := 0; i < n; i++ {
		prod.Data[i*n+i]--
	}
	if d := maxAbsDiff(prod, NewMatrix(n, n)); d > 1e-8 {
		t.Fatalf("A·A⁻¹ ≠ I: %v", d)
	}
}

func TestLogDetFromChol(t *testing.T) {
	// diag(4, 9): det = 36, logdet = log 36.
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{4, 0, 0, 9}}
	l, _ := ParallelCholesky(a, a.Rows, 1)
	if got := PackChol(l).LogDet(); math.Abs(got-math.Log(36)) > 1e-12 {
		t.Fatalf("logdet = %v, want %v", got, math.Log(36))
	}
}

// Property: parallel blocked Cholesky agrees with the serial one for random
// SPD matrices across block sizes and worker counts.
func TestParallelCholeskyMatchesSerial(t *testing.T) {
	// parallelBlocks caps workers at GOMAXPROCS; raise it so the w>1 cases
	// genuinely run concurrently even on a 1-CPU machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{5, 31, 64, 97, 130} {
		a := randomSPD(rng, n)
		want, err := ParallelCholesky(a, a.Rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{8, 16, 33} {
			for _, w := range []int{1, 2, 4, 8} {
				got, err := ParallelCholesky(a, bs, w)
				if err != nil {
					t.Fatalf("n=%d bs=%d w=%d: %v", n, bs, w, err)
				}
				if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
					t.Fatalf("n=%d bs=%d w=%d: diff %v", n, bs, w, d)
				}
			}
		}
	}
}

func TestParallelCholeskyRejectsIndefinite(t *testing.T) {
	n := 80
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] = 1
	}
	a.Data[(n-1)*n+n-1] = -1
	if _, err := ParallelCholesky(a, 16, 4); err == nil {
		t.Fatalf("expected failure on indefinite matrix")
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	c := CopyVec(x)
	c[0] = 99
	if x[0] == 99 {
		t.Fatalf("CopyVec shares storage")
	}
	ScaleVec(0.5, x)
	if x[1] != 1 {
		t.Fatalf("ScaleVec = %v", x)
	}
}

// quick-check: Cholesky solve round-trips random right-hand sides.
func TestCholeskySolveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randomSPD(rng, n)
		l, err := ParallelCholesky(a, a.Rows, 1)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := PackChol(l).SolveVec(b)
		return residual(a, x, b) <= 1e-7*(1+math.Sqrt(Dot(b, b)))*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
