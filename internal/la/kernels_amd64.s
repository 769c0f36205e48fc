//go:build !purego

#include "textflag.h"

// AVX2 bodies for the lane-accumulation loops of Dot, the 2×4 tiles of
// tile.dots and forwardSubst's one- and multi-RHS blocks (matrix.go states
// the lane contract), the multi-RHS block with its finish. Every kernel keeps one product's four lanes in one YMM
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

// ROWS2X4(ra, rb) accumulates the lanes of rows ra and rb against the four
// vectors R10–R13 over [0, CX): Y0–Y3 for ra, Y4–Y7 for rb, one per vector.
// Each row is loaded once per four elements for all four vectors. Uses
// Y8–Y12 and AX.
#define ROWS2X4(ra, rb) \
	XORQ   AX, AX; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	VMOVUPD (ra)(AX*8), Y8; \
	VMOVUPD (rb)(AX*8), Y9; \
	VMOVUPD (R10)(AX*8), Y10; \
	VMULPD  Y8, Y10, Y11; \
	VMULPD  Y9, Y10, Y12; \
	VADDPD  Y11, Y0, Y0; \
	VADDPD  Y12, Y4, Y4; \
	VMOVUPD (R11)(AX*8), Y10; \
	VMULPD  Y8, Y10, Y11; \
	VMULPD  Y9, Y10, Y12; \
	VADDPD  Y11, Y1, Y1; \
	VADDPD  Y12, Y5, Y5; \
	VMOVUPD (R12)(AX*8), Y10; \
	VMULPD  Y8, Y10, Y11; \
	VMULPD  Y9, Y10, Y12; \
	VADDPD  Y11, Y2, Y2; \
	VADDPD  Y12, Y6, Y6; \
	VMOVUPD (R13)(AX*8), Y10; \
	VMULPD  Y8, Y10, Y11; \
	VMULPD  Y9, Y10, Y12; \
	VADDPD  Y11, Y3, Y3; \
	VADDPD  Y12, Y7, Y7; \
	ADDQ    $4, AX; \
	CMPQ    AX, CX; \
	JLT     -24(PC)

// func dotRows2x4Lanes(r0, r1, b0, b1, b2, b3 *float64, n int, s *[32]float64)
// s[16j+4k : 16j+4k+4] are the lanes of rj·bk.
TEXT ·dotRows2x4Lanes(SB), NOSPLIT, $0-64
	MOVQ r0+0(FP), SI
	MOVQ r1+8(FP), DI
	MOVQ b0+16(FP), R10
	MOVQ b1+24(FP), R11
	MOVQ b2+32(FP), R12
	MOVQ b3+40(FP), R13
	MOVQ n+48(FP), CX
	MOVQ s+56(FP), DX
	ROWS2X4(SI, DI)
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

// TRANSPOSE(a0, a1, a2, a3, t0, t1, t2, t3) turns four vectors ak, lane l
// of each the (k, l) entry, into four vectors al, lane k of each that
// entry: a 4×4 transpose through t0–t3.
#define TRANSPOSE(a0, a1, a2, a3, t0, t1, t2, t3) \
	VUNPCKLPD  a1, a0, t0; \
	VUNPCKHPD  a1, a0, t1; \
	VUNPCKLPD  a3, a2, t2; \
	VUNPCKHPD  a3, a2, t3; \
	VPERM2F128 $0x20, t2, t0, a0; \
	VPERM2F128 $0x20, t3, t1, a1; \
	VPERM2F128 $0x31, t2, t0, a2; \
	VPERM2F128 $0x31, t3, t1, a3

// func forwardBlock4(r0, r1, r2, r3, b0, b1, b2, b3 *float64, i int)
//
// forwardBlock4Wide's contract in YMM registers. Sixteen accumulators do not
// fit beside their operands, so the prefix runs in two passes of
// dotRows2x4Lanes' loop, rows 0–1 and then 2–3, and each pair of rows is
// finished in registers right after its pass: a transpose turns its lanes
// into vectors whose lane k is right-hand side k, and the chunks bk[i:i+4]
// into the entries b[i+r]; then s = l0 plus the tail products L[i+r, i+t]·x_t
// for t < r in order, (s + l2) + (l1 + l3), b[i+r] minus that, and one
// VDIVPD by the pivot. x0 and x1 (Y14, Y15) wait through the second pass.
TEXT ·forwardBlock4(SB), NOSPLIT, $0-72
	MOVQ r0+0(FP), SI
	MOVQ r1+8(FP), DI
	MOVQ r2+16(FP), R8
	MOVQ r3+24(FP), R9
	MOVQ b0+32(FP), R10
	MOVQ b1+40(FP), R11
	MOVQ b2+48(FP), R12
	MOVQ b3+56(FP), R13
	MOVQ i+64(FP), CX

	ROWS2X4(SI, DI)
	VMOVUPD (R10)(CX*8), Y8
	VMOVUPD (R11)(CX*8), Y9
	VMOVUPD (R12)(CX*8), Y10
	VMOVUPD (R13)(CX*8), Y11
	TRANSPOSE(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15) // b[i], b[i+1] in Y8, Y9

	// Row 0: x0 = (b[i] − ((l0 + l2) + (l1 + l3))) / L[i, i], into Y14.
	TRANSPOSE(Y0, Y1, Y2, Y3, Y10, Y11, Y12, Y13)   // l0 … l3 in Y0 … Y3
	VADDPD       Y3, Y1, Y1
	VADDPD       Y2, Y0, Y0
	VADDPD       Y1, Y0, Y0
	VSUBPD       Y0, Y8, Y0
	VBROADCASTSD (SI)(CX*8), Y1
	VDIVPD       Y1, Y0, Y14

	// Row 1: one tail product, x1 into Y15.
	TRANSPOSE(Y4, Y5, Y6, Y7, Y10, Y11, Y12, Y13)
	VADDPD       Y7, Y5, Y5
	VBROADCASTSD (DI)(CX*8), Y0
	VMULPD       Y14, Y0, Y0
	VADDPD       Y0, Y4, Y4
	VADDPD       Y6, Y4, Y4
	VADDPD       Y5, Y4, Y4
	VSUBPD       Y4, Y9, Y4
	VBROADCASTSD 8(DI)(CX*8), Y0
	VDIVPD       Y0, Y4, Y15

	// b[i+2] and b[i+3] into Y12 and Y9: the transpose's last two rows,
	// with Y14 and Y15 still holding x0 and x1.
	ROWS2X4(R8, R9)
	VMOVUPD    (R10)(CX*8), Y8
	VMOVUPD    (R11)(CX*8), Y9
	VMOVUPD    (R12)(CX*8), Y10
	VMOVUPD    (R13)(CX*8), Y11
	VUNPCKLPD  Y9, Y8, Y12
	VUNPCKLPD  Y11, Y10, Y13
	VPERM2F128 $0x31, Y13, Y12, Y12
	VUNPCKHPD  Y9, Y8, Y8
	VUNPCKHPD  Y11, Y10, Y10
	VPERM2F128 $0x31, Y10, Y8, Y9

	// Row 2: two tail products, x2 into Y8.
	TRANSPOSE(Y0, Y1, Y2, Y3, Y8, Y10, Y11, Y13)
	VADDPD       Y3, Y1, Y1
	VBROADCASTSD (R8)(CX*8), Y3
	VMULPD       Y14, Y3, Y3
	VADDPD       Y3, Y0, Y0
	VBROADCASTSD 8(R8)(CX*8), Y3
	VMULPD       Y15, Y3, Y3
	VADDPD       Y3, Y0, Y0
	VADDPD       Y2, Y0, Y0
	VADDPD       Y1, Y0, Y0
	VSUBPD       Y0, Y12, Y0
	VBROADCASTSD 16(R8)(CX*8), Y1
	VDIVPD       Y1, Y0, Y8

	// Row 3: three, x3 into Y10.
	TRANSPOSE(Y4, Y5, Y6, Y7, Y0, Y1, Y2, Y3)
	VADDPD       Y7, Y5, Y5
	VBROADCASTSD (R9)(CX*8), Y3
	VMULPD       Y14, Y3, Y3
	VADDPD       Y3, Y4, Y4
	VBROADCASTSD 8(R9)(CX*8), Y3
	VMULPD       Y15, Y3, Y3
	VADDPD       Y3, Y4, Y4
	VBROADCASTSD 16(R9)(CX*8), Y3
	VMULPD       Y8, Y3, Y3
	VADDPD       Y3, Y4, Y4
	VADDPD       Y6, Y4, Y4
	VADDPD       Y5, Y4, Y4
	VSUBPD       Y4, Y9, Y4
	VBROADCASTSD 24(R9)(CX*8), Y5
	VDIVPD       Y5, Y4, Y10

	// x0 … x3 back to one chunk per right-hand side. Right-hand sides that
	// alias hold the same bits, so their stores agree.
	TRANSPOSE(Y14, Y15, Y8, Y10, Y0, Y1, Y2, Y3)
	VMOVUPD Y14, (R10)(CX*8)
	VMOVUPD Y15, (R11)(CX*8)
	VMOVUPD Y8, (R12)(CX*8)
	VMOVUPD Y10, (R13)(CX*8)
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
