package la

// tier is a rung of kernel bodies: the scalar loops, the AVX2 kernels, or
// the AVX2 kernels with the AVX-512 ones where those exist. Every tier
// returns the same bits; a higher one only runs the same IEEE operations on
// more lanes per instruction.
type tier int

const (
	tierScalar tier = iota
	tierAVX2
	tierAVX512
)

func (t tier) String() string {
	return [...]string{"scalar", "avx2", "avx512"}[t]
}

// cpuTier is the highest tier this build may run on this CPU, read once at
// start-up; vectorKernels and wideKernels (matrix.go) are its two switches.
var cpuTier = detectTier()

// cpuFeatures are the CPUID and XGETBV values kernelTier reads: the highest
// basic leaf (CPUID.0:EAX), CPUID.1:ECX, CPUID.(7,0):EBX and the low word
// of XCR0. A field the CPU does not report (leaf 7 below maxLeaf 7, XCR0
// without OSXSAVE) is zero.
type cpuFeatures struct {
	maxLeaf, leaf1ECX, leaf7EBX, xcr0 uint32
}

// osxsave is CPUID.1 ECX bit 27: the OS has enabled XGETBV, so XCR0 can be
// read.
const osxsave = 1 << 27

// kernelTier is the tier a CPU reporting f may run. AVX2 needs FMA (expLanes
// fuses where Exp does), AVX and OSXSAVE in leaf 1, AVX2 in leaf 7, and XCR0
// bits 1–2: the OS saves the XMM and YMM state across context switches.
// AVX-512 adds AVX512F (leaf 7 EBX bit 16) and XCR0 bits 5–7, the opmask and
// both halves of the ZMM state; its kernels use AVX512F instructions alone.
// A CPU that reports AVX512F under an OS that does not save the ZMM state
// stays on AVX2.
func kernelTier(f cpuFeatures) tier {
	const (
		fma, avx      = 1 << 12, 1 << 28 // leaf 1 ECX, beside osxsave
		avx2, avx512f = 1 << 5, 1 << 16  // leaf 7 EBX
		ymmState      = 1<<1 | 1<<2      // XCR0: SSE, AVX
		zmmState      = ymmState | 1<<5 | 1<<6 | 1<<7
	)
	if f.maxLeaf < 7 || f.leaf1ECX&(fma|osxsave|avx) != fma|osxsave|avx ||
		f.xcr0&ymmState != ymmState || f.leaf7EBX&avx2 == 0 {
		return tierScalar
	}
	if f.leaf7EBX&avx512f == 0 || f.xcr0&zmmState != zmmState {
		return tierAVX2
	}
	return tierAVX512
}
