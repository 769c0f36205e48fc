package la

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardPage maps four read-write pages of float64s followed by one
// PROT_NONE page, so that an access one byte past the returned slice
// faults; unmap releases them all.
func guardPage(t *testing.T) (page []float64, unmap func()) {
	t.Helper()
	size := 4 * syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, size+syscall.Getpagesize(), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	page = unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), size/8)
	return page, func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	}
}

// atEnd returns the last n elements of page: an operand whose last element
// ends on the last byte before the PROT_NONE page.
func atEnd(page []float64, n int) []float64 { return page[len(page)-n:] }

// TestLaneKernelsStopAtTheSlice: the masked last blocks read and write
// nothing past their operands. Every operand — source, destination, the
// last row of a strided matrix, the weights and the point — ends on the
// last byte before a PROT_NONE page, at every length from 0 to 67 per tier,
// so one lane touched past the end faults (reported as a panic here). The
// results are also compared with the scalar tier's.
func TestLaneKernelsStopAtTheSlice(t *testing.T) {
	eachTier(t, testLaneKernelsStopAtTheSlice)
}

func testLaneKernelsStopAtTheSlice(t *testing.T) {
	src, unmapSrc := guardPage(t)
	defer unmapSrc()
	dst, unmapDst := guardPage(t)
	defer unmapDst()
	par, unmapPar := guardPage(t)
	defer unmapPar()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	rng := rand.New(rand.NewSource(37))
	run := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: %v", what, r)
			}
		}()
		fn()
	}
	same := func(what string, got []float64, want []float64) {
		t.Helper()
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s: [%d] = %#x, scalar %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for _, dim := range []int{1, 3, 8} {
			stride := n + rng.Intn(3)
			x := atEnd(src, (dim-1)*stride+n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			w, pt := atEnd(par, dim), atEnd(par, 2*dim)[:dim]
			for d := range w {
				w[d], pt[d] = 0.5+rng.Float64(), rng.NormFloat64()
			}
			out := atEnd(dst, n)
			want := make([]float64, max(n, dim*n))
			where := func(kernel string) string { return fmt.Sprintf("%s n=%d dim=%d", kernel, n, dim) }

			run(where("WeightedSumsInto"), func() { WeightedSumsInto(out, w, x, stride, -0.5) })
			scalarOnly(func() { WeightedSumsInto(want[:n], w, x, stride, -0.5) })
			same(where("WeightedSumsInto"), out, want[:n])

			run(where("NegSqDistInto"), func() { NegSqDistInto(out, w, pt, x, stride) })
			scalarOnly(func() { NegSqDistInto(want[:n], w, pt, x, stride) })
			same(where("NegSqDistInto"), out, want[:n])

			args := atEnd(src, n)
			for i := range args {
				args[i] = -30 * rng.Float64()
			}
			run(where("ExpInto"), func() { ExpInto(out, args) })
			scalarOnly(func() { ExpInto(want[:n], args) })
			same(where("ExpInto"), out, want[:n])
			run(where("ExpInto in place"), func() { ExpInto(args, args) })
			same(where("ExpInto in place"), args, want[:n])

			if n > 0 {
				rows := atEnd(dst, dim*n)
				run(where("SqDiffsInto"), func() { SqDiffsInto(rows, x, stride, n) })
				scalarOnly(func() { SqDiffsInto(want[:dim*n], x, stride, n) })
				same(where("SqDiffsInto"), rows, want[:dim*n])
			}
		}
	}
}
