//go:build !purego

package la

// The vector kernels of kernels_amd64.s. Each accumulates the 4-aligned
// prefix of its products into lanes exactly as the scalar loops in matrix.go
// do and stores the lanes to s; tails and the final combine stay in Go. n
// must be a positive multiple of 4 and every operand must hold n elements.

//go:noescape
func dotLanes(a, b *float64, n int, s *[4]float64)

//go:noescape
func dotRows4Lanes(r0, r1, r2, r3, b *float64, n int, s *[16]float64)

//go:noescape
func dotRows2x4Lanes(r0, r1, b0, b1, b2, b3 *float64, n int, s *[32]float64)

// forwardBlock4 is forwardSubst's whole block of four rows for four
// right-hand sides (kernels_amd64.s): rows i … i+3 of L start at r0 … r3,
// and it sets bk[i+r] = (bk[i+r] − Dot(L[i+r, :i+r], bk[:i+r])) /
// L[i+r, i+r] for r < 4 and every k, tails and combine included. i is a
// positive multiple of 4, each row holds i+r+1 elements and each bk i+4;
// the bk may alias one another. forwardBlock4Wide (kernels_avx512_amd64.s)
// is the AVX-512 tier's body of the same contract.
//
//go:noescape
func forwardBlock4(r0, r1, r2, r3, b0, b1, b2, b3 *float64, i int)

//go:noescape
func forwardBlock4Wide(r0, r1, r2, r3, b0, b1, b2, b3 *float64, i int)

// The fused strips of kernels_amd64.s, which states what each computes:
// one call per row pair of the Cholesky factorization (cholStrip, gemmStrip;
// cholStrip4 for two row pairs) and per two column pairs (invWStrip4) or
// per row pair (wtwStrip) of the inverse. They run on the AVX2 and AVX-512
// tiers alike.

//go:noescape
func cholStrip(x, y, l *float64, tiles, step, grow int)

//go:noescape
func cholStrip4(x0, x1, x2, x3, l *float64, tiles, step, grow, diag int, spill *[32]float64) int

//go:noescape
func invWStrip4(xa, ya, xb, yb, l *float64, rows, step, grow int, w00a, w00b float64, spill *[32]float64)

//go:noescape
func wtwStrip(x, y, w, iv, m0, out *float64, quads, nlast, length, step, grow, mstride int, w00 float64)

//go:noescape
func gemmStrip(x, y, xo, yo, l *float64, quads, length, step, grow int)

// The kernels of lanes_amd64.s; lanes.go states what each computes. n is
// any positive count; the kernels that take masks (= &laneMasks) run a last
// block of n mod 4 under them, and accumLanes' n counts four-lane elements.
// dim ≥ 1, 1 ≤ nd ≤ 4.

//go:noescape
func expLanes(dst, src *float64, n int, tab *[16][4]float64, masks *[8]int64) int

//go:noescape
func weightedSumsLanes(dst, w, x *float64, dim, stride, n int, scale float64, masks *[8]int64)

//go:noescape
func negSqDistLanes(dst, w, pt, x *float64, dim, stride, n int, masks *[8]int64)

//go:noescape
func accumLanes(acc, e, x *float64, nd, stride, n int)

//go:noescape
func sqDiffsLanes(dst, x *float64, dim, stride, n int, masks *[8]int64)

// The AVX-512 tier's bodies of the first three and of sqDiffsLanes
// (lanes_avx512_amd64.s): the same contracts, eight elements per register,
// the last block of (n − 1) mod 8 + 1 under an opmask.

//go:noescape
func expLanesWide(dst, src *float64, n int, tab *[16][4]float64) int

//go:noescape
func weightedSumsLanesWide(dst, w, x *float64, dim, stride, n int, scale float64)

//go:noescape
func negSqDistLanesWide(dst, w, pt, x *float64, dim, stride, n int)

//go:noescape
func sqDiffsLanesWide(dst, x *float64, dim, stride, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detectTier reads the CPU's features for kernelTier (internal/cpu is not
// importable). XGETBV runs only when OSXSAVE says the OS enabled it.
func detectTier() tier {
	var f cpuFeatures
	f.maxLeaf, _, _, _ = cpuid(0, 0)
	_, _, f.leaf1ECX, _ = cpuid(1, 0)
	if f.leaf1ECX&osxsave != 0 {
		f.xcr0, _ = xgetbv()
	}
	if f.maxLeaf >= 7 {
		_, f.leaf7EBX, _, _ = cpuid(7, 0)
	}
	return kernelTier(f)
}
