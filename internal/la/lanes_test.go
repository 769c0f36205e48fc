package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// guardLen elements of guardNaN follow every operand a kernel writes in the
// tail tests: a NaN no kernel produces, so a store past the operand's end —
// a masked-off lane stored, or a tail written whole — changes its bits.
const guardLen = 8

var guardNaN = math.Float64frombits(0x7FF8_0000_0000_0BAD)

// guarded returns n elements starting off elements into a fresh backing
// array, followed by guardLen elements of guardNaN.
func guarded(n, off int) []float64 {
	b := make([]float64, off+n+guardLen)
	for i := off + n; i < len(b); i++ {
		b[i] = guardNaN
	}
	return b[off : off+n]
}

// checkGuard fails unless the guard after s, made by guarded, still holds
// guardNaN's bits.
func checkGuard(t *testing.T, what string, s []float64) {
	t.Helper()
	for i, v := range s[len(s) : len(s)+guardLen] {
		if math.Float64bits(v) != math.Float64bits(guardNaN) {
			t.Fatalf("%s: len %d: wrote %#x past the end at +%d", what, len(s), math.Float64bits(v), i)
		}
	}
}

// checkExp runs ExpInto in place over a copy of src placed off elements into
// its guarded backing array and compares every element with Exp.
func checkExp(t *testing.T, what string, src []float64, off int) {
	t.Helper()
	buf := guarded(len(src), off)
	copy(buf, src)
	ExpInto(buf, buf)
	checkGuard(t, what, buf)
	for i, x := range src {
		if want := Exp(x); !sameFloat(buf[i], want) {
			t.Fatalf("%s: len %d off %d: ExpInto(%v = %#x)[%d] = %#x, Exp %#x", what, len(src), off,
				x, math.Float64bits(x), i, math.Float64bits(buf[i]), math.Float64bits(want))
		}
	}
}

// expKernel runs this tier's Exp kernel once over all of src, as ExpInto
// does first, and returns how many elements it did.
func expKernel(dst, src []float64) int {
	if wideKernels {
		return expLanesWide(&dst[0], &src[0], len(src), &expTab)
	}
	return expLanes(&dst[0], &src[0], len(src), &expTab, &laneMasks)
}

// TestExpIntoIsExp is ExpInto's whole contract: Exp's bits on every input
// (any NaN for a NaN), on every machine, and nothing written past dst. The
// arguments are expClasses and expSpecials; at every length from 0 to 67
// and four alignments the special values also land in every lane position
// next to ordinary lanes — the last, partial block's included — so the block
// fallback is exercised per position. The kernel alone must count a
// masked-off lane as in range whatever lies past the operand (here a NaN,
// which is not): in-range arguments take one call at every length. Under
// -short the long vectors shrink to 4 Ki.
func TestExpIntoIsExp(t *testing.T) { eachTier(t, testExpIntoIsExp) }

func testExpIntoIsExp(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	classes := expClasses(rng)
	perClass, maxLen := 1<<20, 67 // five classes: 5 Mi inputs through the long vectors alone
	if testing.Short() {
		perClass = 1 << 12
	}
	for _, c := range classes {
		src := make([]float64, perClass)
		for i := range src {
			src[i] = c.gen()
		}
		checkExp(t, c.name, src, 0)
	}

	for n := 0; n <= maxLen; n++ {
		for off := 0; off < 4; off++ {
			for _, c := range classes {
				src := make([]float64, n)
				for i := range src {
					src[i] = c.gen()
				}
				checkExp(t, c.name, src, off)
			}
			// One special value per vector, walked through every position.
			for _, s := range expSpecials {
				src := make([]float64, n)
				for pos := 0; pos < n; pos++ {
					for i := range src {
						src[i] = -30 * rng.Float64()
					}
					src[pos] = s
					checkExp(t, "special", src, off)
				}
			}
		}
		if vectorKernels && n > 0 {
			src, dst := guarded(n, 0), guarded(n, 1)
			for i := range src {
				src[i] = -30 * rng.Float64()
			}
			if done := expKernel(dst, src); done != n {
				t.Fatalf("len %d in range: the kernel stopped after %d", n, done)
			}
			checkGuard(t, "kernel", dst)
		}
	}

	// Separate source and destination leave the source alone.
	src := []float64{-1, -2, -3, -4, -5, -800, 3, 2, 1}
	keep := CopyVec(src)
	dst := guarded(len(src), 0)
	ExpInto(dst, src)
	checkGuard(t, "out of place", dst)
	for i := range src {
		if src[i] != keep[i] || !sameFloat(dst[i], Exp(src[i])) {
			t.Fatalf("out of place: src[%d] %v (was %v), dst %v", i, src[i], keep[i], dst[i])
		}
	}
}

// laneSizes are the vector lengths the sweep kernels are checked at: every
// length up to 67 — every tail of either tier after up to eight blocks,
// both sides of the 64 boundary — and a long odd one.
func laneSizes() []int {
	sizes := []int{541}
	for n := 0; n <= 67; n++ {
		sizes = append(sizes, n)
	}
	return sizes
}

// lacedInput is kernelInput with, when laced, a quarter of the entries
// replaced by exact zeros of either sign, infinities and NaN — the values on
// which skipping a term, fusing a product or reordering a sum would show.
func lacedInput(rng *rand.Rand, n, off int, laced bool) []float64 {
	x := kernelInput(rng, n, off, false)
	if laced {
		for i := range x {
			if rng.Intn(4) == 0 {
				x[i] = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0, 0}[rng.Intn(7)]
			}
		}
	}
	return x
}

// TestLaneKernelsBitwiseEqualScalar: each sweep kernel returns the bits of
// its definition written out as the plainest loop — for AccumLanesInto in
// the order the gradient sweep ran before it had a kernel, element outermost
// — at every length, dimension count and alignment, and writes nothing past
// its destination. Normal inputs tell a fused multiply-add from a product
// and a sum; laced ones propagate NaN, Inf and signed zeros through every
// accumulator.
func TestLaneKernelsBitwiseEqualScalar(t *testing.T) {
	eachTier(t, testLaneKernelsBitwiseEqualScalar)
}

func testLaneKernelsBitwiseEqualScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, laced := range []bool{false, true} {
		for _, n := range laneSizes() {
			for _, dim := range []int{1, 3, 4, 5, 8, 9} {
				off := rng.Intn(4)
				stride := n + rng.Intn(3)
				x := lacedInput(rng, dim*stride, off, laced)
				w := lacedInput(rng, dim, (off+1)&3, laced)
				pt := lacedInput(rng, dim, (off+2)&3, laced)
				where := func(kernel string) string { return fmt.Sprintf("%s: laced=%v", kernel, laced) }

				got := guarded(n, (off+3)&3)
				for _, scale := range []float64{-0.5, 1} { // the LCM's two uses
					WeightedSumsInto(got, w, x, stride, scale)
					checkGuard(t, where("WeightedSumsInto"), got)
					for p := 0; p < n; p++ {
						acc := 0.0
						for d := 0; d < dim; d++ {
							acc += w[d] * x[d*stride+p]
						}
						if want := scale * acc; !sameFloat(got[p], want) {
							t.Fatalf("%s n=%d dim=%d scale=%v: [%d] = %#x, scalar %#x", where("WeightedSumsInto"), n, dim, scale, p, math.Float64bits(got[p]), math.Float64bits(want))
						}
					}
				}

				NegSqDistInto(got, w, pt, x, stride)
				checkGuard(t, where("NegSqDistInto"), got)
				for r := 0; r < n; r++ {
					acc := 0.0
					for d := 0; d < dim; d++ {
						diff := pt[d] - x[d*stride+r]
						sq := diff * diff
						acc += w[d] * sq
					}
					if want := -acc; !sameFloat(got[r], want) {
						t.Fatalf("%s n=%d dim=%d: [%d] = %#x, scalar %#x", where("NegSqDistInto"), n, dim, r, math.Float64bits(got[r]), math.Float64bits(want))
					}
				}

				// Rows dim of n from column col of x on, as the LCM fills one
				// sample's row from the coordinates of those after it; the
				// guard past the last row shows a masked tail writing on.
				sq := guarded(dim*n, 0)
				col := rng.Intn(stride - n + 1)
				SqDiffsInto(sq, x[col:], stride, n)
				checkGuard(t, where("SqDiffsInto"), sq)
				for d := 0; d < dim; d++ {
					for j := 0; j < n; j++ {
						diff := x[d*stride+col] - x[d*stride+col+j]
						if want := diff * diff; !sameFloat(sq[d*n+j], want) {
							t.Fatalf("%s n=%d dim=%d: [%d][%d] = %#x, scalar %#x", where("SqDiffsInto"), n, dim, d, j, math.Float64bits(sq[d*n+j]), math.Float64bits(want))
						}
					}
				}

				// Two calls into the same accumulators, as consecutive rows
				// of a chunk make them.
				e1 := lacedInput(rng, 4*n, (off+3)&3, laced)
				e2 := lacedInput(rng, 4*n, off, laced)
				acc := make([]float64, 4*dim)
				want := make([]float64, 4*dim)
				for _, e := range [][]float64{e1, e2} {
					AccumLanesInto(acc, e, x, stride)
					for j := 0; j < n; j++ {
						for d := 0; d < dim; d++ {
							for l := 0; l < 4; l++ {
								want[4*d+l] += e[4*j+l] * x[d*stride+j]
							}
						}
					}
				}
				for i := range want {
					if !sameFloat(acc[i], want[i]) {
						t.Fatalf("%s n=%d dim=%d: acc[%d] = %#x, scalar %#x", where("AccumLanesInto"), n, dim, i, math.Float64bits(acc[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestLaneKernelsRejectShortOperands: the kernels read through raw pointers,
// so a wrapper must panic on an operand too short for its shape instead of
// reading past it.
func TestLaneKernelsRejectShortOperands(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	x := make([]float64, 3*10)
	w := make([]float64, 3)
	mustPanic("ExpInto lengths", func() { ExpInto(make([]float64, 7), make([]float64, 8)) })
	mustPanic("WeightedSumsInto short x", func() { WeightedSumsInto(make([]float64, 11), w, x, 10, 1) })
	mustPanic("WeightedSumsInto stride", func() { WeightedSumsInto(make([]float64, 8), w, x, -1, 1) })
	mustPanic("NegSqDistInto short x", func() { NegSqDistInto(make([]float64, 11), w, w, x, 10) })
	mustPanic("NegSqDistInto short point", func() { NegSqDistInto(make([]float64, 8), w, w[:2], x, 10) })
	mustPanic("AccumLanesInto short x", func() { AccumLanesInto(make([]float64, 12), make([]float64, 44), x, 10) })
	mustPanic("AccumLanesInto ragged lanes", func() { AccumLanesInto(make([]float64, 11), make([]float64, 40), x, 10) })
	mustPanic("SqDiffsInto short x", func() { SqDiffsInto(make([]float64, 33), x, 10, 11) })
	mustPanic("SqDiffsInto ragged rows", func() { SqDiffsInto(make([]float64, 25), x, 10, 8) })
}
