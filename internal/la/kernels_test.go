package la

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// setTier switches the dispatch to tier tr — the two package switches, as
// start-up sets them from cpuTier — and returns the tier it replaced.
func setTier(tr tier) tier {
	was := tierScalar
	if wideKernels {
		was = tierAVX512
	} else if vectorKernels {
		was = tierAVX2
	}
	vectorKernels, wideKernels = tr >= tierAVX2, tr >= tierAVX512
	return was
}

// withTier runs fn on tier tr's bodies.
func withTier(tr tier, fn func()) {
	defer setTier(setTier(tr))
	fn()
}

// scalarOnly runs fn with the dispatch forced to the scalar bodies — the
// oracle the vector kernels must match. The whole suite on those bodies is
// the purego build: go test -tags purego.
func scalarOnly(fn func()) { withTier(tierScalar, fn) }

// tiersHere are the tiers this build can run on this CPU, scalar first.
func tiersHere() []tier {
	var ts []tier
	for tr := tierScalar; tr <= cpuTier; tr++ {
		ts = append(ts, tr)
	}
	return ts
}

// eachTier runs fn as one subtest per tier — scalar, AVX2, AVX-512 — on that
// tier's bodies, skips a tier this build on this CPU cannot run with its
// reason, and logs the tiers that ran. A kernel test under it compares every
// tier's bits with the scalar oracle.
func eachTier(t *testing.T, fn func(t *testing.T)) {
	var ran []string
	for tr := tierScalar; tr <= tierAVX512; tr++ {
		t.Run(tr.String(), func(t *testing.T) {
			if tr > cpuTier {
				t.Skipf("no %s kernels: this build on this CPU stops at the %s tier (a purego build, or a CPU or OS without the features)", tr, cpuTier)
			}
			withTier(tr, func() { fn(t) })
		})
		if tr <= cpuTier {
			ran = append(ran, tr.String())
		}
	}
	t.Logf("tiers run: %s", strings.Join(ran, ", "))
}

// sameFloat is bit equality, except that any NaN equals any NaN: which
// payload an operation on two NaNs keeps is not part of the lane contract.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// hostile are the values the salted inputs are laced with: signed zeros,
// subnormals, magnitudes whose products overflow and underflow, infinities.
var hostile = []float64{
	0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300, math.Inf(1), math.Inf(-1),
}

// kernelInput fills a fresh slice of n elements starting off elements into
// its backing array — so the data is 8- but not 32-byte aligned for three
// offsets in four — with seeded normals, a quarter of them replaced by
// hostile values when salted.
func kernelInput(rng *rand.Rand, n, off int, salted bool) []float64 {
	x := make([]float64, off+n+4)[off : off+n]
	for i := range x {
		x[i] = rng.NormFloat64()
		if salted && rng.Intn(4) == 0 {
			x[i] = hostile[rng.Intn(len(hostile))]
		}
	}
	return x
}

// TestVectorKernelsBitwiseEqualScalar is the vector ≡ scalar contract:
// whatever the length, alignment and values, Dot, the four-row kernel and
// the 2×4 tile return the bits of the scalar lane loops. Almost every normal input
// rounds differently under a fused multiply-add, so this fails if a kernel
// is ever "upgraded" to VFMADD.
func TestVectorKernelsBitwiseEqualScalar(t *testing.T) {
	eachTier(t, testVectorKernelsBitwiseEqualScalar)
}

func testVectorKernelsBitwiseEqualScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, salted := range []bool{false, true} {
		for n := 0; n <= 131; n++ {
			for off := 0; off < 4; off++ {
				a := kernelInput(rng, n, off, salted)
				b := kernelInput(rng, n, (off+1)&3, salted)
				c := kernelInput(rng, n, (off+2)&3, salted)
				d := kernelInput(rng, n, (off+3)&3, salted)
				v := kernelInput(rng, n, off, salted)

				var want float64
				scalarOnly(func() { want = Dot(a, v) })
				if got := Dot(a, v); !sameFloat(got, want) {
					t.Fatalf("salted=%v n=%d off=%d: Dot %x, scalar %x", salted, n, off, math.Float64bits(got), math.Float64bits(want))
				}

				// The 2×4 tile, over the whole length: every lane of either
				// dispatch is the other's, and each row·column combine is the
				// Dot of that column and row.
				var vec, scalar tile
				cols := [4][]float64{v, c, d, a}
				vec.dots(a, b, &cols, 0, n)
				scalarOnly(func() { scalar.dots(a, b, &cols, 0, n) })
				for p, got := range vec {
					if math.Float64bits(got) != math.Float64bits(scalar[p]) {
						t.Fatalf("salted=%v n=%d off=%d: tile lane %d %x, scalar %x", salted, n, off, p, math.Float64bits(got), math.Float64bits(scalar[p]))
					}
				}
				for r, row := range [][]float64{a, b} {
					for k, col := range cols {
						scalarOnly(func() { want = Dot(col, row) })
						if got := vec.dot(r, k); !sameFloat(got, want) {
							t.Fatalf("salted=%v n=%d off=%d: tile row %d column %d %x, Dot %x", salted, n, off, r, k, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}

				// The four-row kernel directly, over the aligned prefix it is
				// specified for (forwardSubst adds the tails; tested below).
				n4 := n &^ 3
				if !vectorKernels || n4 == 0 {
					continue
				}
				var s [16]float64
				dotRows4Lanes(&a[0], &b[0], &c[0], &d[0], &v[0], n4, &s)
				for r, row := range [][]float64{a, b, c, d} {
					scalarOnly(func() { want = Dot(row[:n4], v[:n4]) })
					if got := (s[4*r] + s[4*r+2]) + (s[4*r+1] + s[4*r+3]); !sameFloat(got, want) {
						t.Fatalf("salted=%v n=%d off=%d: four-row kernel row %d %x, scalar %x", salted, n, off, r, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestForwardSubstOneBodyBitwise: packed ≡ dense ≡ AppendRows' panel ≡ the
// row-by-row recurrence over scalar Dots, across the sizes where the blocks
// of four start, end and leave a remainder, with a zero and a NaN pivot
// poisoning everything after them identically — and for one to four
// right-hand sides solved in one pass, dense and packed, each the bits of
// its own row-by-row solve.
func TestForwardSubstOneBodyBitwise(t *testing.T) {
	eachTier(t, testForwardSubstOneBodyBitwise)
}

func testForwardSubstOneBodyBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sizes := []int{63, 64, 65, 541}
	for n := 0; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for _, pivot := range []string{"ok", "zero", "nan"} {
			l := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					l.Set(i, j, rng.NormFloat64()/math.Sqrt(float64(n)))
				}
				l.Set(i, i, 1+rng.Float64())
			}
			switch {
			case n == 0:
			case pivot == "zero":
				l.Set(n/2, n/2, 0)
			case pivot == "nan":
				l.Set(n/2, n/2, math.NaN())
			}
			var rhss, wants [MaxRHS][]float64
			for k := range rhss {
				rhss[k] = kernelInput(rng, n, k, false)
				wants[k] = CopyVec(rhss[k])
				scalarOnly(func() {
					w := wants[k]
					for i := 0; i < n; i++ {
						li := l.Row(i)
						w[i] = (w[i] - Dot(li[:i], w[:i])) / li[i]
					}
				})
			}
			rhs, want := rhss[0], wants[0]

			dense := CopyVec(rhs)
			forwardSubst(l.Data, n, dense)
			tp := PackChol(l)
			packed := CopyVec(rhs)
			tp.ForwardSubst(packed)
			for i := range want {
				if !sameFloat(dense[i], want[i]) || !sameFloat(packed[i], want[i]) {
					t.Fatalf("n=%d pivot=%s row %d: dense %x packed %x, row-by-row %x", n, pivot, i,
						math.Float64bits(dense[i]), math.Float64bits(packed[i]), math.Float64bits(want[i]))
				}
			}
			for k := 1; k <= MaxRHS; k++ {
				var denseK, packedK [MaxRHS][]float64
				for j := 0; j < k; j++ {
					denseK[j], packedK[j] = CopyVec(rhss[j]), CopyVec(rhss[j])
				}
				forwardSubst(l.Data, n, denseK[:k]...)
				tp.ForwardSubst(packedK[:k]...)
				for j := 0; j < k; j++ {
					for i, w := range wants[j] {
						if !sameFloat(denseK[j][i], w) || !sameFloat(packedK[j][i], w) {
							t.Fatalf("n=%d pivot=%s %d right-hand sides, #%d row %d: dense %x packed %x, row-by-row %x", n, pivot, k, j, i,
								math.Float64bits(denseK[j][i]), math.Float64bits(packedK[j][i]), math.Float64bits(w))
						}
					}
				}
			}

			if pivot != "ok" {
				continue // AppendRows would reject the non-finite new row
			}
			corner := &Matrix{Rows: 1, Cols: 1, Data: []float64{Dot(want, want) + 1}}
			if _, err := tp.AppendRows(&Matrix{Rows: 1, Cols: n, Data: rhs}, corner, 0, 1); err != nil {
				t.Fatalf("n=%d: AppendRows: %v", n, err)
			}
			for i, w := range tp.Row(n)[:n] {
				if !sameFloat(w, want[i]) {
					t.Fatalf("n=%d: AppendRows panel entry %d %x, row-by-row %x", n, i, math.Float64bits(w), math.Float64bits(want[i]))
				}
			}
		}
	}
}
