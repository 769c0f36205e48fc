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

// The kernels of lanes_amd64.s; lanes.go states what each computes. n is a
// positive multiple of 4 for the first three, any positive count for
// accumLanes, and dim ≥ 1, 1 ≤ nd ≤ 4.

//go:noescape
func expLanes(dst, src *float64, n int, tab *[16][4]float64) int

//go:noescape
func weightedSumsLanes(dst, w, x *float64, dim, stride, n int, scale float64)

//go:noescape
func negSqDistLanes(dst, w, pt, x *float64, dim, stride, n int)

//go:noescape
func accumLanes(acc, e, x *float64, nd, stride, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// haveVectorKernels reports whether the CPU has AVX2 and the OS saves the
// YMM state across context switches (internal/cpu is not importable).
func haveVectorKernels() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS has enabled XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// haveFMA reports CPUID.1:ECX bit 12: the CPU executes expLanes' fused
// multiply-adds. Whether math.Exp uses them too is fusedExp's probe.
func haveFMA() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<12) != 0
}
