//go:build !purego

#include "textflag.h"

// AVX2 bodies for the four-lane kernels of lanes.go. The three sweep kernels
// obey kernels_amd64.s's rule — VMULPD then VADDPD, never fused — because
// their contract is the scalar loop's sequence of IEEE operations per
// accumulator. expLanes is the exception: its contract is Exp (exp.go), which
// fuses, so it fuses in exactly the same places.

// The rows of expTab (lanes.go), each one constant in all four lanes.
#define LOG2E   0(R8)
#define LN2U    32(R8)
#define LN2L    64(R8)
#define C16TH   96(R8)
#define P8      128(R8)
#define P7      160(R8)
#define P6      192(R8)
#define P5      224(R8)
#define P4      256(R8)
#define P3      288(R8)
#define HALF    320(R8)
#define ONE     352(R8)
#define TWO     384(R8)
#define ARGMIN  416(R8)
#define ARGMAX  448(R8)
#define BIAS    480(R8)

// func expLanes(dst, src *float64, n int, tab *[16][4]float64) int
//
// Exp (exp.go, $GOROOT/src/math/exp_amd64.s's useFMA path) four arguments
// at a time: the same multiplies, fused multiply-adds, conversions and shift
// in the same order, so each lane holds Exp's bits. A block is only computed
// when all four arguments are in [ARGMIN, ARGMAX], where Exp takes none of
// its special-case branches (non-finite, overflow, denormal);
// at the first block that is not — the ordered compares fail for NaN too —
// the kernel stops and returns the number of elements done.
TEXT ·expLanes(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), R8
	XORQ AX, AX

exploop:
	VMOVUPD      (SI)(AX*8), Y0
	VCMPPD       $0x1D, ARGMIN, Y0, Y4   // x >= ARGMIN, ordered
	VCMPPD       $0x12, ARGMAX, Y0, Y5   // x <= ARGMAX, ordered
	VANDPD       Y4, Y5, Y4
	VMOVMSKPD    Y4, R9
	CMPL         R9, $15
	JNE          expdone
	VMULPD       LOG2E, Y0, Y1
	VCVTPD2DQY   Y1, X3                  // k = round(x·log2 e), MXCSR rounding like CVTSD2SL
	VCVTDQ2PD    X3, Y1
	VFNMADD231PD LN2U, Y1, Y0            // x -= k·ln2 (upper half, then lower)
	VFNMADD231PD LN2L, Y1, Y0
	VMULPD       C16TH, Y0, Y0
	VMOVUPD      P8, Y1                  // Taylor series in x/16, Horner
	VFMADD213PD  P7, Y0, Y1
	VFMADD213PD  P6, Y0, Y1
	VFMADD213PD  P5, Y0, Y1
	VFMADD213PD  P4, Y0, Y1
	VFMADD213PD  P3, Y0, Y1
	VFMADD213PD  HALF, Y0, Y1
	VFMADD213PD  ONE, Y0, Y1
	VMULPD       Y1, Y0, Y0              // y = e^(x/16) − 1
	VADDPD       TWO, Y0, Y1             // four squarings: y ← y·(y + 2)
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       TWO, Y0, Y1
	VFMADD213PD  ONE, Y1, Y0             // the last one fused with the +1
	VPMOVSXDQ    X3, Y2                  // · 2^k: biased exponent into bits 52…62
	VPADDQ       BIAS, Y2, Y2
	VPSLLQ       $52, Y2, Y2
	VMULPD       Y2, Y0, Y0
	VMOVUPD      Y0, (DI)(AX*8)
	ADDQ         $4, AX
	CMPQ         AX, CX
	JLT          exploop

expdone:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func weightedSumsLanes(dst, w, x *float64, dim, stride, n int, scale float64)
//
// dst[p] = scale·Σ_d w[d]·x[d·stride+p] for p < n: lanes are four
// consecutive p, each summing d ascending from +0.
TEXT ·weightedSumsLanes(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         w+8(FP), BX
	MOVQ         x+16(FP), SI
	MOVQ         dim+24(FP), R10
	MOVQ         stride+32(FP), R11
	MOVQ         n+40(FP), CX
	VBROADCASTSD scale+48(FP), Y3
	SHLQ         $3, R11                 // stride in bytes
	XORQ         AX, AX

wsploop:
	LEAQ   (SI)(AX*8), R8                // &x[0·stride+p]
	XORQ   DX, DX
	VXORPD Y0, Y0, Y0

wsdloop:
	VBROADCASTSD (BX)(DX*8), Y1
	VMULPD       (R8), Y1, Y1
	VADDPD       Y1, Y0, Y0
	ADDQ         R11, R8
	INCQ         DX
	CMPQ         DX, R10
	JLT          wsdloop

	VMULPD  Y3, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     wsploop

	VZEROUPPER
	RET

// func negSqDistLanes(dst, w, pt, x *float64, dim, stride, n int)
//
// dst[r] = −Σ_d w[d]·(pt[d] − x[d·stride+r])² for r < n: lanes are four
// consecutive r; difference, square, weight and add are four separate
// operations, and the final negation is a sign flip.
TEXT ·negSqDistLanes(SB), NOSPLIT, $0-56
	MOVQ     dst+0(FP), DI
	MOVQ     w+8(FP), BX
	MOVQ     pt+16(FP), R9
	MOVQ     x+24(FP), SI
	MOVQ     dim+32(FP), R10
	MOVQ     stride+40(FP), R11
	MOVQ     n+48(FP), CX
	VPCMPEQQ Y3, Y3, Y3
	VPSLLQ   $63, Y3, Y3                 // the sign bit in every lane
	SHLQ     $3, R11
	XORQ     AX, AX

sdrloop:
	LEAQ   (SI)(AX*8), R8
	XORQ   DX, DX
	VXORPD Y0, Y0, Y0

sddloop:
	VBROADCASTSD (R9)(DX*8), Y1
	VSUBPD       (R8), Y1, Y1            // pt[d] − x
	VMULPD       Y1, Y1, Y1
	VBROADCASTSD (BX)(DX*8), Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y2, Y0, Y0
	ADDQ         R11, R8
	INCQ         DX
	CMPQ         DX, R10
	JLT          sddloop

	VXORPD  Y3, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     sdrloop

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
// masks[4 − n mod 4 :], whose masked loads read nothing past the row and
// whose masked stores write nothing there.
TEXT ·sqDiffsLanes(SB), NOSPLIT, $0-48
	MOVQ    dst+0(FP), DI
	MOVQ    x+8(FP), SI
	MOVQ    dim+16(FP), R10
	MOVQ    stride+24(FP), R11
	MOVQ    n+32(FP), CX
	MOVQ    masks+40(FP), R8
	SHLQ    $3, R11                      // stride in bytes
	MOVQ    CX, R9
	ANDQ    $3, R9                       // the last block's lanes, 0 when none
	MOVQ    CX, BX
	SUBQ    R9, BX                       // elements in whole blocks
	MOVQ    $4, DX
	SUBQ    R9, DX
	VMOVDQU (R8)(DX*8), Y4               // the last block's mask

sqdloop:
	VBROADCASTSD (SI), Y1                // x[d·stride], the row's own sample
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          sqtail

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
