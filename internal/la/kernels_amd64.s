//go:build !purego

#include "textflag.h"

// AVX2 bodies for the lane-accumulation loops of Dot, the 2×4 tiles of
// tile.dots and forwardSubst's one- and multi-RHS blocks (matrix.go states
// the lane contract). Every kernel keeps one product's four lanes in one YMM
// register and issues VMULPD then VADDPD per four elements, which is, lane by
// lane, the scalar loop's sequence of IEEE operations. Never VFMADD*: a fused multiply-add rounds once where the
// scalar body rounds twice, and the results would no longer be bit-equal.
// Loads are unaligned (VMOVUPD / VEX memory operands); n is a positive
// multiple of 4.

// func dotLanes(a, b *float64, n int, s *[4]float64)
TEXT ·dotLanes(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	MOVQ   s+24(FP), DX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0

dotloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     dotloop

	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func dotRows4Lanes(r0, r1, r2, r3, b *float64, n int, s *[16]float64)
// s[4k:4k+4] are the lanes of rk·b.
TEXT ·dotRows4Lanes(SB), NOSPLIT, $0-56
	MOVQ   r0+0(FP), SI
	MOVQ   r1+8(FP), DI
	MOVQ   r2+16(FP), R8
	MOVQ   r3+24(FP), R9
	MOVQ   b+32(FP), R10
	MOVQ   n+40(FP), CX
	MOVQ   s+48(FP), DX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

rows4loop:
	VMOVUPD (R10)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y4, Y5
	VMULPD  (DI)(AX*8), Y4, Y6
	VMULPD  (R8)(AX*8), Y4, Y7
	VMULPD  (R9)(AX*8), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     rows4loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func dotRows2x4Lanes(r0, r1, b0, b1, b2, b3 *float64, n int, s *[32]float64)
// s[16j+4k : 16j+4k+4] are the lanes of rj·bk. Each row is loaded once per
// four elements for all four right-hand sides: eight accumulators, Y0–Y3
// for r0 and Y4–Y7 for r1.
TEXT ·dotRows2x4Lanes(SB), NOSPLIT, $0-64
	MOVQ   r0+0(FP), SI
	MOVQ   r1+8(FP), DI
	MOVQ   b0+16(FP), R8
	MOVQ   b1+24(FP), R9
	MOVQ   b2+32(FP), R10
	MOVQ   b3+40(FP), R11
	MOVQ   n+48(FP), CX
	MOVQ   s+56(FP), DX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

rows2x4loop:
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (DI)(AX*8), Y9

	VMOVUPD (R8)(AX*8), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y11, Y0, Y0
	VADDPD  Y12, Y4, Y4

	VMOVUPD (R9)(AX*8), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y11, Y1, Y1
	VADDPD  Y12, Y5, Y5

	VMOVUPD (R10)(AX*8), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y11, Y2, Y2
	VADDPD  Y12, Y6, Y6

	VMOVUPD (R11)(AX*8), Y10
	VMULPD  Y8, Y10, Y11
	VMULPD  Y9, Y10, Y12
	VADDPD  Y11, Y3, Y3
	VADDPD  Y12, Y7, Y7

	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     rows2x4loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
