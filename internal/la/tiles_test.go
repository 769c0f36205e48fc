package la

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The entry-by-entry bodies the 2×4 tiles replaced — one Dot per entry, in
// the recurrence's order — kept as the oracle the tiled factorization and
// inverse must match bit for bit.

func refCholInPlace(l *Matrix, k0, k1 int) error {
	n := l.Cols
	for i := k0; i < k1; i++ {
		ri := l.Data[i*n:]
		for j := k0; j <= i; j++ {
			rj := l.Data[j*n:]
			s := ri[j] - Dot(ri[k0:j], rj[k0:j])
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return ErrNotPositiveDefinite
				}
				ri[j] = math.Sqrt(s)
			} else {
				ri[j] = s / rj[j]
			}
		}
	}
	return nil
}

func refTrsmRight(l *Matrix, i0, i1, k0, k1 int) {
	n := l.Cols
	for i := i0; i < i1; i++ {
		row := l.Data[i*n:]
		for j := k0; j < k1; j++ {
			lj := l.Data[j*n:]
			row[j] = (row[j] - Dot(row[k0:j], lj[k0:j])) / lj[j]
		}
	}
}

func refGemmUpdate(l *Matrix, i0, i1, j0, j1, k0, k1 int) {
	n := l.Cols
	for i := i0; i < i1; i++ {
		ri := l.Data[i*n:]
		jmax := j1
		if j0 <= i && i < j1 {
			jmax = i + 1
		}
		for j := j0; j < jmax; j++ {
			ri[j] -= Dot(ri[k0:k1], l.Data[j*n:][k0:k1])
		}
	}
}

// refCholesky is choleskyInto's blocked schedule, serial, over the oracle
// block bodies.
func refCholesky(a *Matrix, jitter float64, blockSize int) (*Matrix, error) {
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(l.Row(i)[:i+1], a.Row(i)[:i+1])
		if jitter > 0 {
			l.Data[i*n+i] += jitter
		}
	}
	for k0 := 0; k0 < n; k0 += blockSize {
		k1 := min(k0+blockSize, n)
		if err := refCholInPlace(l, k0, k1); err != nil {
			return nil, err
		}
		for i0 := k1; i0 < n; i0 += blockSize {
			refTrsmRight(l, i0, min(i0+blockSize, n), k0, k1)
		}
		for i0 := k1; i0 < n; i0 += blockSize {
			for j0 := k1; j0 <= i0; j0 += blockSize {
				refGemmUpdate(l, i0, min(i0+blockSize, n), j0, min(j0+blockSize, n), k0, k1)
			}
		}
	}
	return l, nil
}

// refCholeskyJitter is CholeskyJitter's escalation over refCholesky.
func refCholeskyJitter(a *Matrix, blockSize int) (*Matrix, float64, error) {
	n := a.Rows
	meanDiag := 0.0
	for i := 0; i < n; i++ {
		meanDiag += math.Abs(a.At(i, i))
	}
	if n > 0 {
		meanDiag /= float64(n)
	}
	if meanDiag == 0 {
		meanDiag = 1
	}
	jitter, next := 0.0, 1e-10*meanDiag
	for attempt := 0; attempt < jitterAttempts; attempt++ {
		if l, err := refCholesky(a, jitter, blockSize); err == nil {
			return l, jitter, nil
		}
		jitter, next = next, next*10
	}
	return nil, jitter, ErrNotPositiveDefinite
}

// refCholInverse is ParallelCholInverse's two phases, serial, one Dot per
// entry.
func refCholInverse(l *Matrix) *Matrix {
	n := l.Rows
	wt, inv := NewMatrix(n, n), NewMatrix(n, n)
	for j0 := 0; j0 < n; j0 += 2 {
		j1 := j0 + 1
		row0 := wt.Row(j0)
		row0[j0] = 1 / l.At(j0, j0)
		if j1 >= n {
			break
		}
		lj1 := l.Row(j1)
		row0[j1] = -lj1[j0] * row0[j0] / lj1[j1]
		row1 := wt.Row(j1)
		row1[j1] = 1 / lj1[j1]
		for k := j1 + 1; k < n; k++ {
			lk := l.Row(k)
			s0, s1 := Dot(lk[j1:k], row0[j1:k]), Dot(lk[j1:k], row1[j1:k])
			s0 += lk[j0] * row0[j0]
			row0[k] = -s0 / lk[k]
			row1[k] = -s1 / lk[k]
		}
	}
	for i0 := 0; i0 < n; i0 += 2 {
		i1 := i0 + 1
		wi0 := wt.Row(i0)
		if i1 >= n {
			for j := 0; j <= i0; j++ {
				s := Dot(wi0[i0:], wt.Row(j)[i0:])
				inv.Data[i0*n+j] = s
				inv.Data[j*n+i0] = s
			}
			break
		}
		wi1 := wt.Row(i1)
		for j := 0; j <= i0; j++ {
			wj := wt.Row(j)
			s0, s1 := Dot(wj[i1:], wi0[i1:]), Dot(wj[i1:], wi1[i1:])
			s0 += wi0[i0] * wj[i0]
			inv.Data[i0*n+j] = s0
			inv.Data[j*n+i0] = s0
			inv.Data[i1*n+j] = s1
			inv.Data[j*n+i1] = s1
		}
		inv.Data[i1*n+i1] = Dot(wi1[i1:], wi1[i1:])
	}
	return inv
}

// tileSizes are every n ≤ 80, then a sparse sweep to 300 across block
// boundaries and tile remainders.
func tileSizes() []int {
	var sizes []int
	for n := 0; n <= 80; n++ {
		sizes = append(sizes, n)
	}
	return append(sizes, 97, 130, 193, 300)
}

// tileInputs returns the matrices the tiled factorization is checked on:
// well-conditioned SPD; rank-deficient PSD, which needs a jitter rung;
// indefinite, whose last pivot fails at every rung; and diagonally dominant
// with a third of its lower triangle replaced by +0 and −0, so the factor
// carries signed zeros into every sum.
func tileInputs(rng *rand.Rand, n int) map[string]*Matrix {
	spd := randomSPD(rng, n)
	b := NewMatrix(n, (n+1)/2)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	lowRank := MatMulTransB(b, b)
	indef := spd.Clone()
	if n > 0 {
		indef.Data[n*n-1] = -float64(n * n)
	}
	zeros := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := rng.NormFloat64() / float64(n)
			switch rng.Intn(6) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			zeros.Data[i*n+j] = v
		}
		zeros.Data[i*n+i] = 2 + rng.Float64()
	}
	inputs := map[string]*Matrix{"spd": spd, "jitter": lowRank, "signed zeros": zeros}
	if n <= 80 {
		inputs["indefinite"] = indef // twelve failing rungs per call: the dense sweep is enough
	}
	return inputs
}

// sameMatrixBits reports the first entry whose bits differ, or "".
func sameMatrixBits(got, want *Matrix) string {
	for p, w := range want.Data {
		if g := got.Data[p]; math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Sprintf("entry (%d,%d) %v (%x), oracle %v (%x)", p/want.Cols, p%want.Cols, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return ""
}

// samePackedBits reports the first entry of the packed lower triangle got
// whose bits differ from want's lower triangle, or "".
func samePackedBits(got *TriPacked, want *Matrix) string {
	for i := 0; i < want.Rows; i++ {
		for j := 0; j <= i; j++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("packed entry (%d,%d) %v (%x), oracle %v (%x)", i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return ""
}

// TestTiledCholeskyBitwise: the tiled factorization ≡ the entry-by-entry
// recurrence, every entry's bits, for every n ≤ 80 and a sparse sweep to
// 300, block sizes {n, 64, 16, 5}, one, two and eight workers, once per
// kernel tier (eachTier: the scalar tiles, and the fused strips on the
// AVX2 and AVX-512 tiers), through the jitter escalation — a rank-deficient
// input takes the same rung and reports the same jitter, an indefinite one
// fails at every rung with the same error — and with ParallelCholesky
// failing at the same first attempt. The packed layouts run the same grid:
// a dense input factored into packed storage (CholeskyJitterPacked), and a
// packed input into a reused packed factor (CholeskyJitterPackedInto, its
// storage full of NaN beforehand, as the LCM engine's buffer holds the last
// Σ⁻¹).
func TestTiledCholeskyBitwise(t *testing.T) { eachTier(t, testTiledCholeskyBitwise) }

func testTiledCholeskyBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(101))
	jittered, failed := 0, 0
	for _, n := range tileSizes() {
		for name, a := range tileInputs(rng, n) {
			for _, bs := range []int{n, 64, 16, 5} {
				if bs == 0 {
					continue
				}
				want, wantJitter, wantErr := refCholeskyJitter(a, bs)
				_, bareErr := refCholesky(a, 0, bs)
				if wantErr != nil {
					failed++
				} else if wantJitter > 0 {
					jittered++
				}
				packedA := PackChol(a)
				for _, w := range []int{1, 2, 8} {
					got, jitter, err := CholeskyJitter(a, 0, bs, w)
					bare, gotBareErr := ParallelCholesky(a, bs, w)
					packed, packedJitter, packedErr := CholeskyJitterPacked(a, 0, bs, w)
					into := NewTriPacked(n, nil)
					for i := range into.data {
						into.data[i] = math.NaN()
					}
					intoJitter, intoErr := CholeskyJitterPackedInto(into, packedA, 0, bs, w)
					where := fmt.Sprintf("n=%d %s block=%d workers=%d", n, name, bs, w)
					if err != wantErr || gotBareErr != bareErr {
						t.Fatalf("%s: errors (%v, bare %v), oracle (%v, bare %v)", where, err, gotBareErr, wantErr, bareErr)
					}
					if math.Float64bits(jitter) != math.Float64bits(wantJitter) {
						t.Fatalf("%s: jitter %g, oracle %g", where, jitter, wantJitter)
					}
					if err == nil {
						if d := sameMatrixBits(got, want); d != "" {
							t.Fatalf("%s: %s", where, d)
						}
					}
					if bareErr == nil && wantJitter == 0 {
						if d := sameMatrixBits(bare, want); d != "" {
							t.Fatalf("%s bare: %s", where, d)
						}
					}
					if packedErr != wantErr || intoErr != wantErr {
						t.Fatalf("%s: packed errors (%v, into %v), oracle %v", where, packedErr, intoErr, wantErr)
					}
					if math.Float64bits(packedJitter) != math.Float64bits(wantJitter) || math.Float64bits(intoJitter) != math.Float64bits(wantJitter) {
						t.Fatalf("%s: packed jitter (%g, into %g), oracle %g", where, packedJitter, intoJitter, wantJitter)
					}
					if err == nil {
						for kind, p := range map[string]*TriPacked{"packed": packed, "packed into": into} {
							if d := samePackedBits(p, want); d != "" {
								t.Fatalf("%s %s: %s", where, kind, d)
							}
						}
					}
				}
			}
		}
	}
	if jittered == 0 || failed == 0 {
		t.Fatalf("%d factorizations took a jitter rung and %d failed at every rung, want both", jittered, failed)
	}
}

// sameUpperPackedBits reports the first entry of the upper-packed triangle
// got (CholInversePackedInto's layout) whose bits differ from want's upper
// triangle, or "".
func sameUpperPackedBits(got []float64, want *Matrix) string {
	n := want.Rows
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if g, w := got[upStart(i, 0, n)+j], want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("packed entry (%d,%d) %v (%x), oracle %v (%x)", i, j, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return ""
}

// TestTiledInverseBitwise: the tiled ParallelCholInverseInto ≡ the
// entry-by-entry phases, every entry's bits, on the factors
// TestTiledCholeskyBitwise checks and on random lower-triangular factors a
// third of whose off-diagonal entries are +0 or −0 (the closed form of W's
// second row keeps the sign of a zero the general recurrence would flip),
// for every n ≤ 80 and a sparse sweep to 300, one, two and eight workers,
// once per kernel tier (eachTier), into fresh and into reused scratch, the
// reused scratch full of NaN beforehand — and the packed layout,
// CholInversePackedInto of the packed factor into NaN-filled reused
// buffers, over the same grid: its upper triangle is the oracle's, entry
// for entry.
func TestTiledInverseBitwise(t *testing.T) { eachTier(t, testTiledInverseBitwise) }

func testTiledInverseBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(103))
	for _, n := range tileSizes() {
		wt, inv := NewMatrix(n, n), NewMatrix(n, n)
		pwt, pinv := make([]float64, n*(n+1)/2), make([]float64, n*(n+1)/2)
		for name, l := range inverseFactors(rng, n) {
			want := refCholInverse(l)
			packedL := PackChol(l)
			for _, w := range []int{1, 2, 8} {
				for _, buf := range [][]float64{wt.Data, inv.Data, pwt, pinv} {
					for i := range buf {
						buf[i] = math.NaN()
					}
				}
				fresh := ParallelCholInverse(l, w)
				reused := ParallelCholInverseInto(l, w, wt, inv)
				packed := CholInversePackedInto(packedL, w, pwt, pinv)
				for kind, got := range map[string]*Matrix{"fresh": fresh, "reused": reused} {
					if d := sameMatrixBits(got, want); d != "" {
						t.Fatalf("n=%d %s workers=%d %s scratch: %s", n, name, w, kind, d)
					}
				}
				if d := sameUpperPackedBits(packed, want); d != "" {
					t.Fatalf("n=%d %s workers=%d packed: %s", n, name, w, d)
				}
			}
		}
	}
}

// inverseFactors returns the order-n factors the inverse is checked on: the
// oracle's factors of tileInputs, and a random lower-triangular factor a
// third of whose off-diagonal entries are +0 or −0.
func inverseFactors(rng *rand.Rand, n int) map[string]*Matrix {
	factors := map[string]*Matrix{}
	for name, a := range tileInputs(rng, n) {
		if l, _, err := refCholeskyJitter(a, 64); err == nil {
			factors[name] = l
		}
	}
	laced := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := rng.NormFloat64()
			switch rng.Intn(3) {
			case 0:
				v = 0
			case 1:
				v = math.Copysign(0, -1)
			}
			laced.Data[i*n+j] = v
		}
		laced.Data[i*n+i] = 0.5 + rng.Float64()
	}
	factors["laced"] = laced
	return factors
}

// TestCholInverseIntoOverwritesItsFactor: ParallelCholInverseInto with inv
// the factor itself, NaN above the factor's diagonal and wt full of NaN,
// and CholInversePackedInto with inv the packed factor's own storage and wt
// full of NaN — what the LCM engine's two buffers hand it — write every
// entry the bits of separate, fresh scratch, for the sizes, worker counts
// and dispatches of TestTiledInverseBitwise. A read of the factor in the second
// phase or above its diagonal, or of an entry of wt or inv before it is
// written, shows up as a differing entry.
func TestCholInverseIntoOverwritesItsFactor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(107))
	for _, n := range tileSizes() {
		wt := NewMatrix(n, n)
		pwt := make([]float64, n*(n+1)/2)
		for name, l := range inverseFactors(rng, n) {
			for _, w := range []int{1, 2, 8} {
				for _, scalar := range []bool{false, true} {
					var want, got *Matrix
					var gotPacked []float64
					run := func() {
						want = ParallelCholInverse(l, w)
						for i := range wt.Data {
							wt.Data[i] = math.NaN()
						}
						got = l.Clone()
						for i := 0; i < n; i++ {
							for j := i + 1; j < n; j++ {
								got.Data[i*n+j] = math.NaN()
							}
						}
						if p := ParallelCholInverseInto(got, w, wt, got); p != got {
							t.Fatalf("n=%d: ParallelCholInverseInto returned another matrix than inv", n)
						}
						gotPacked = PackChol(l).data
						for i := range pwt {
							pwt[i] = math.NaN()
						}
						CholInversePackedInto(NewTriPacked(n, gotPacked), w, pwt, gotPacked)
					}
					if scalar {
						scalarOnly(run)
					} else {
						run()
					}
					if d := sameMatrixBits(got, want); d != "" {
						t.Fatalf("n=%d %s workers=%d scalar=%v, inv = l: %s", n, name, w, scalar, d)
					}
					if d := sameUpperPackedBits(gotPacked, want); d != "" {
						t.Fatalf("n=%d %s workers=%d scalar=%v, packed inv = l: %s", n, name, w, scalar, d)
					}
				}
			}
		}
	}
}

// TestCholInverseDiagBitwise: CholInverseDiag of the packed factor is the
// diagonal of ParallelCholInverse of the dense one, every entry's bits, for
// the sizes, worker counts and dispatches of TestTiledInverseBitwise.
func TestCholInverseDiagBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(109))
	for _, n := range tileSizes() {
		for name, l := range inverseFactors(rng, n) {
			packed := PackChol(l)
			for _, w := range []int{1, 2, 8} {
				for _, scalar := range []bool{false, true} {
					var inv *Matrix
					var diag []float64
					run := func() {
						inv = ParallelCholInverse(l, w)
						diag = CholInverseDiag(packed, w)
					}
					if scalar {
						scalarOnly(run)
					} else {
						run()
					}
					if len(diag) != n {
						t.Fatalf("n=%d: %d diagonal entries", n, len(diag))
					}
					for i, got := range diag {
						if want := inv.At(i, i); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("n=%d %s workers=%d scalar=%v: diag[%d] %v, inverse %v", n, name, w, scalar, i, got, want)
						}
					}
				}
			}
		}
	}
}
