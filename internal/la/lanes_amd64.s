//go:build !purego

#include "textflag.h"
#include "exptab_amd64.h"

// AVX2 bodies for the four-lane kernels of lanes.go. The sweep kernels obey
// kernels_amd64.s's rule — VMULPD then VADDPD, never fused — because their
// contract is the scalar loop's sequence of IEEE operations per accumulator.
// expLanes is the exception: its contract is Exp (exp.go), which fuses, so it
// fuses in exactly the same places. Every kernel but accumLanes takes any
// length n ≥ 1 and masks its own last block (LASTMASK), and every loop head
// is 64-byte aligned (PCALIGN), so a loop's fetch does not depend on the
// size of the code before it.

// LASTMASK(masks, n, lanes, whole, ymask) splits n elements into whole =
// n − n mod 4 in whole blocks and a last block of lanes = n mod 4, 0 when
// there is none, and loads that block's VMASKMOVPD mask masks[4 − lanes :]
// into ymask: its masked loads read nothing past the operand, reading +0
// in the lanes masked off, and its masked stores write nothing there.
// Clobbers DX.
#define LASTMASK(masks, n, lanes, whole, ymask) \
	MOVQ    n, lanes; \
	ANDQ    $3, lanes; \
	MOVQ    n, whole; \
	SUBQ    lanes, whole; \
	MOVQ    $4, DX; \
	SUBQ    lanes, DX; \
	VMOVDQU (masks)(DX*8), ymask

// EXPBLOCK is Exp (exp.go, $GOROOT/src/math/exp_amd64.s's useFMA path) of
// the four arguments in Y0, into Y0: the same multiplies, fused
// multiply-adds, conversions and shift in the same order, so each lane holds
// Exp's bits. It only computes when all four arguments are in
// [ARGMIN, ARGMAX], where Exp takes none of its special-case branches
// (non-finite, overflow, denormal); otherwise — the ordered compares fail
// for NaN too — it jumps to expdone. Uses Y1–Y5 and R11.
#define EXPBLOCK \
	VCMPPD       $0x1D, ARGMIN, Y0, Y4; \
	VCMPPD       $0x12, ARGMAX, Y0, Y5; \
	VANDPD       Y4, Y5, Y4; \
	VMOVMSKPD    Y4, R11; \
	CMPL         R11, $15; \
	JNE          expdone; \
	VMULPD       LOG2E, Y0, Y1; \
	VCVTPD2DQY   Y1, X3; \
	VCVTDQ2PD    X3, Y1; \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD       C16TH, Y0, Y0; \
	VMOVUPD      P8, Y1; \
	VFMADD213PD  P7, Y0, Y1; \
	VFMADD213PD  P6, Y0, Y1; \
	VFMADD213PD  P5, Y0, Y1; \
	VFMADD213PD  P4, Y0, Y1; \
	VFMADD213PD  P3, Y0, Y1; \
	VFMADD213PD  HALF, Y0, Y1; \
	VFMADD213PD  ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VFMADD213PD  ONE, Y1, Y0; \
	VPMOVSXDQ    X3, Y2; \
	VPADDQ       BIAS, Y2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VMULPD       Y2, Y0, Y0

// func expLanes(dst, src *float64, n int, tab *[16][4]float64, masks *[8]int64) int
//
// Exp of n ≥ 1 arguments, EXPBLOCK four at a time: in the multiply by
// log₂e, k = round(x·log₂e) by VCVTPD2DQ under the MXCSR rounding as
// CVTSD2SL does it, x − k·ln2 as two fused steps (upper half, then lower),
// the Taylor series in x/16 by Horner, y = e^(x/16) − 1, four squarings
// y ← y·(y + 2), the last fused with the +1, and · 2^k by shifting the
// biased exponent into bits 52…62. A last block of n mod 4 arguments goes
// through VMASKMOVPD under masks[4 − n mod 4 :]: its masked-off lanes read
// +0, which is in range, and are never stored. At the first block with a
// lane out of range the kernel stops and returns the number of elements
// done; otherwise it returns n.
TEXT ·expLanes(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), R8
	MOVQ masks+32(FP), R10
	LASTMASK(R10, CX, R9, BX, Y6)
	XORQ AX, AX
	CMPQ AX, BX
	JGE  exptail

	PCALIGN $64

exploop:
	VMOVUPD (SI)(AX*8), Y0
	EXPBLOCK
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     exploop

exptail:
	TESTQ      R9, R9
	JZ         expdone
	VMASKMOVPD (SI)(AX*8), Y6, Y0
	EXPBLOCK
	VMASKMOVPD Y0, Y6, (DI)(AX*8)
	MOVQ       CX, AX

expdone:
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET

// func weightedSumsLanes(dst, w, x *float64, dim, stride, n int, scale float64, masks *[8]int64)
//
// dst[p] = scale·Σ_d w[d]·x[d·stride+p] for p < n, n ≥ 1: lanes are four
// consecutive p, each summing d ascending from +0. The whole blocks loop
// back to the d loop's head with the next block's sums cleared; a last
// block of n mod 4 lanes runs the d loop again with VMASKMOVPD loads and
// store under masks[4 − n mod 4 :].
TEXT ·weightedSumsLanes(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         w+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         dim+24(FP), R10
	MOVQ         stride+32(FP), R11
	MOVQ         n+40(FP), CX
	VBROADCASTSD scale+48(FP), Y3
	MOVQ         masks+56(FP), R12
	SHLQ         $3, R11                 // stride in bytes
	LASTMASK(R12, CX, R9, BX, Y4)
	XORQ         AX, AX
	CMPQ         AX, BX
	JLT          wsblock
	JMP          wstail

	PCALIGN $64

wsdloop:
	VBROADCASTSD (R8)(DX*8), Y1
	VMULPD       (R13), Y1, Y1
	VADDPD       Y1, Y0, Y0
	ADDQ         R11, R13
	INCQ         DX
	CMPQ         DX, R10
	JLT          wsdloop

	VMULPD  Y3, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JGE     wstail

wsblock:
	LEAQ   (SI)(AX*8), R13               // &x[0·stride+p]
	XORQ   DX, DX
	VXORPD Y0, Y0, Y0
	JMP    wsdloop

wstail:
	TESTQ  R9, R9
	JZ     wsdone
	LEAQ   (SI)(AX*8), R13
	XORQ   DX, DX
	VXORPD Y0, Y0, Y0

	PCALIGN $64

wstdloop:
	VBROADCASTSD (R8)(DX*8), Y1
	VMASKMOVPD   (R13), Y4, Y2
	VMULPD       Y2, Y1, Y1
	VADDPD       Y1, Y0, Y0
	ADDQ         R11, R13
	INCQ         DX
	CMPQ         DX, R10
	JLT          wstdloop

	VMULPD     Y3, Y0, Y0
	VMASKMOVPD Y0, Y4, (DI)(AX*8)

wsdone:
	VZEROUPPER
	RET

// func negSqDistLanes(dst, w, pt, x *float64, dim, stride, n int, masks *[8]int64)
//
// dst[r] = −Σ_d w[d]·(pt[d] − x[d·stride+r])² for r < n, n ≥ 1: lanes are
// four consecutive r; difference, square, weight and add are four separate
// operations, and the final negation is a sign flip. Blocks go as in
// weightedSumsLanes, the last one masked.
TEXT ·negSqDistLanes(SB), NOSPLIT, $0-64
	MOVQ     dst+0(FP), DI
	MOVQ     w+8(FP), R8
	MOVQ     pt+16(FP), R14
	MOVQ     x+24(FP), SI
	MOVQ     dim+32(FP), R10
	MOVQ     stride+40(FP), R11
	MOVQ     n+48(FP), CX
	MOVQ     masks+56(FP), R12
	VPCMPEQQ Y3, Y3, Y3
	VPSLLQ   $63, Y3, Y3                 // the sign bit in every lane
	SHLQ     $3, R11
	LASTMASK(R12, CX, R9, BX, Y4)
	XORQ     AX, AX
	CMPQ     AX, BX
	JLT      sdblock
	JMP      sdtail

	PCALIGN $64

sddloop:
	VBROADCASTSD (R14)(DX*8), Y1
	VSUBPD       (R13), Y1, Y1           // pt[d] − x
	VMULPD       Y1, Y1, Y1
	VBROADCASTSD (R8)(DX*8), Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ         R11, R13
	INCQ         DX
	CMPQ         DX, R10
	JLT          sddloop

	VXORPD  Y3, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JGE     sdtail

sdblock:
	LEAQ   (SI)(AX*8), R13
	XORQ   DX, DX
	VXORPD Y0, Y0, Y0
	JMP    sddloop

sdtail:
	TESTQ  R9, R9
	JZ     sddone
	LEAQ   (SI)(AX*8), R13
	XORQ   DX, DX
	VXORPD Y0, Y0, Y0

	PCALIGN $64

sdtdloop:
	VBROADCASTSD (R14)(DX*8), Y1
	VMASKMOVPD   (R13), Y4, Y5
	VSUBPD       Y5, Y1, Y1
	VMULPD       Y1, Y1, Y1
	VBROADCASTSD (R8)(DX*8), Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ         R11, R13
	INCQ         DX
	CMPQ         DX, R10
	JLT          sdtdloop

	VXORPD     Y3, Y0, Y0
	VMASKMOVPD Y0, Y4, (DI)(AX*8)

sddone:
	VZEROUPPER
	RET

// func accumLanes(acc, e, x *float64, nd, stride, n int)
//
// acc[4d+l] += e[4j+l]·x[d·stride+j] for d < nd ≤ 4, l < 4, j ascending
// over [0, n): lanes are the four columns of e, and up to four rows of x
// advance together, one accumulator register each, so the adds of one j
// are independent chains. nd is loop-invariant; the tests on it predict.
TEXT ·accumLanes(SB), NOSPLIT, $0-48
	MOVQ    acc+0(FP), DI
	MOVQ    e+8(FP), BX
	MOVQ    x+16(FP), SI
	MOVQ    nd+24(FP), R10
	MOVQ    stride+32(FP), R11
	MOVQ    n+40(FP), CX
	SHLQ    $3, R11
	LEAQ    (SI)(R11*1), R12             // rows 1…3 of x; dereferenced only below nd
	LEAQ    (R12)(R11*1), R13
	LEAQ    (R13)(R11*1), DX
	VMOVUPD (DI), Y0
	CMPQ    R10, $2
	JLT     accloaded
	VMOVUPD 32(DI), Y1
	CMPQ    R10, $3
	JLT     accloaded
	VMOVUPD 64(DI), Y2
	CMPQ    R10, $4
	JLT     accloaded
	VMOVUPD 96(DI), Y3

accloaded:
	XORQ AX, AX

	PCALIGN $64

accjloop:
	VMOVUPD      (BX), Y4
	VBROADCASTSD (SI)(AX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0
	CMPQ         R10, $2
	JLT          accnext
	VBROADCASTSD (R12)(AX*8), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1
	CMPQ         R10, $3
	JLT          accnext
	VBROADCASTSD (R13)(AX*8), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2
	CMPQ         R10, $4
	JLT          accnext
	VBROADCASTSD (DX)(AX*8), Y8
	VMULPD       Y4, Y8, Y8
	VADDPD       Y8, Y3, Y3

accnext:
	ADDQ $32, BX
	INCQ AX
	CMPQ AX, CX
	JLT  accjloop

	VMOVUPD Y0, (DI)
	CMPQ    R10, $2
	JLT     accstored
	VMOVUPD Y1, 32(DI)
	CMPQ    R10, $3
	JLT     accstored
	VMOVUPD Y2, 64(DI)
	CMPQ    R10, $4
	JLT     accstored
	VMOVUPD Y3, 96(DI)

accstored:
	VZEROUPPER
	RET

// func sqDiffsLanes(dst, x *float64, dim, stride, n int, masks *[8]int64)
//
// dst[d·n+j] = (x[d·stride] − x[d·stride+j])² for d < dim, j < n: lanes are
// four consecutive j; the difference and the square are two separate
// operations. A last block of n mod 4 goes through VMASKMOVPD under
// masks[4 − n mod 4 :] (LASTMASK).
TEXT ·sqDiffsLanes(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    dim+16(FP), R10
	MOVQ    stride+24(FP), R11
	MOVQ    n+32(FP), CX
	MOVQ    masks+40(FP), R8
	SHLQ    $3, R11                      // stride in bytes
	LASTMASK(R8, CX, R9, BX, Y4)

	PCALIGN $64

sqdloop:
	VBROADCASTSD (SI), Y1                // x[d·stride], the row's own sample
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          sqtail

	PCALIGN $64

sqjloop:
	VSUBPD  (SI)(AX*8), Y1, Y0           // x_r − x_s
	VMULPD  Y0, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     sqjloop

sqtail:
	TESTQ      R9, R9
	JZ         sqnext
	VMASKMOVPD (SI)(AX*8), Y4, Y2
	VSUBPD     Y2, Y1, Y0
	VMULPD     Y0, Y0, Y0
	VMASKMOVPD Y0, Y4, (DI)(AX*8)

sqnext:
	ADDQ R11, SI
	LEAQ (DI)(CX*8), DI
	DECQ R10
	JNZ  sqdloop

	VZEROUPPER
	RET
