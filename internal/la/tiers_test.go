package la

import "testing"

// TestKernelTier: the tier predicate on synthetic CPUID and XCR0 values —
// every feature the AVX2 tier needs taken away one at a time, and the
// AVX-512 tier refused whenever the OS leaves any part of the ZMM state
// unsaved, whatever the CPU reports.
func TestKernelTier(t *testing.T) {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
		avx2, avx512f     = 1 << 5, 1 << 16
		leaf1             = fma | osxsave | avx
		xmmYMM            = 1<<1 | 1<<2
		allZMM            = xmmYMM | 1<<5 | 1<<6 | 1<<7
	)
	full := cpuFeatures{maxLeaf: 0xd, leaf1ECX: leaf1, leaf7EBX: avx2 | avx512f, xcr0: allZMM | 1}
	with := func(change func(*cpuFeatures)) cpuFeatures {
		f := full
		change(&f)
		return f
	}
	for _, c := range []struct {
		name string
		f    cpuFeatures
		want tier
	}{
		{"AVX2, AVX512F and the ZMM state enabled", full, tierAVX512},
		{"AVX-512F reported but ZMM state not enabled by the OS", with(func(f *cpuFeatures) { f.xcr0 = xmmYMM | 1 }), tierAVX2},
		{"AVX-512F reported, opmask state missing", with(func(f *cpuFeatures) { f.xcr0 &^= 1 << 5 }), tierAVX2},
		{"AVX-512F reported, upper halves of ZMM0–15 missing", with(func(f *cpuFeatures) { f.xcr0 &^= 1 << 6 }), tierAVX2},
		{"AVX-512F reported, ZMM16–31 missing", with(func(f *cpuFeatures) { f.xcr0 &^= 1 << 7 }), tierAVX2},
		{"no AVX512F, ZMM state enabled", with(func(f *cpuFeatures) { f.leaf7EBX = avx2 }), tierAVX2},
		{"AVX2 without FMA", with(func(f *cpuFeatures) { f.leaf1ECX &^= fma }), tierScalar},
		{"no AVX2", with(func(f *cpuFeatures) { f.leaf7EBX = avx512f }), tierScalar},
		{"no AVX", with(func(f *cpuFeatures) { f.leaf1ECX &^= avx }), tierScalar},
		{"no OSXSAVE (XCR0 unreadable)", with(func(f *cpuFeatures) { f.leaf1ECX &^= osxsave; f.xcr0 = 0 }), tierScalar},
		{"YMM state not enabled by the OS", with(func(f *cpuFeatures) { f.xcr0 = 1 << 1 }), tierScalar},
		{"leaf 7 not reported", with(func(f *cpuFeatures) { f.maxLeaf = 6; f.leaf7EBX = 0 }), tierScalar},
		{"nothing", cpuFeatures{}, tierScalar},
	} {
		if got := kernelTier(c.f); got != c.want {
			t.Errorf("%s (%+v): tier %s, want %s", c.name, c.f, got, c.want)
		}
	}
	t.Logf("this build on this CPU: %s tier", cpuTier)
}
