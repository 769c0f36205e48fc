//go:build !purego

#include "textflag.h"

// AVX-512 bodies (AVX512F alone) for three of the four-lane kernels of
// lanes.go: lanes_amd64.s's loops eight elements per ZMM, each element
// seeing the same IEEE operations in the same order as in the AVX2 body, so
// the same bits. n is a positive multiple of 4; a last block of four runs
// under the opmask K1 = 0x0F, whose masked loads read nothing past the
// operand and whose masked stores write nothing there.

// K1 = the lanes of the block at AX: all eight, or four when that is all
// that is left of CX. Clobbers DX and R12.
#define BLOCKMASK \
	MOVQ  CX, DX; \
	SUBQ  AX, DX; \
	MOVL  $0xFF, R12; \
	CMPQ  DX, $8; \
	JGE   2(PC); \
	MOVL  $0x0F, R12; \
	KMOVW R12, K1

// The rows of expTab (lanes.go), each broadcast from its first lane.
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

// func expLanesWide(dst, src *float64, n int, tab *[16][4]float64) int
//
// expLanes eight arguments at a time, with expLanes' instructions in their
// ZMM forms: a block is computed only when every lane of it is in
// [ARGMIN, ARGMAX] (a masked-off lane reads +0, which is), and the kernel
// stops at the first block that is not and returns the number of elements
// done.
TEXT ·expLanesWide(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), R8
	XORQ AX, AX

wexploop:
	BLOCKMASK
	VMOVUPD.Z         (SI)(AX*8), K1, Z0
	VCMPPD.BCST       $0x1D, ARGMIN, Z0, K2      // x >= ARGMIN, ordered
	VCMPPD.BCST       $0x12, ARGMAX, Z0, K2, K2  // and x <= ARGMAX, ordered
	KMOVW             K2, R9
	CMPL              R9, $0xFF
	JNE               wexpdone
	VMULPD.BCST       LOG2E, Z0, Z1
	VCVTPD2DQ         Z1, Y3                     // k = round(x·log2 e), MXCSR rounding
	VCVTDQ2PD         Y3, Z1
	VFNMADD231PD.BCST LN2U, Z1, Z0               // x -= k·ln2 (upper half, then lower)
	VFNMADD231PD.BCST LN2L, Z1, Z0
	VMULPD.BCST       C16TH, Z0, Z0
	VBROADCASTSD      P8, Z1                     // Taylor series in x/16, Horner
	VFMADD213PD.BCST  P7, Z0, Z1
	VFMADD213PD.BCST  P6, Z0, Z1
	VFMADD213PD.BCST  P5, Z0, Z1
	VFMADD213PD.BCST  P4, Z0, Z1
	VFMADD213PD.BCST  P3, Z0, Z1
	VFMADD213PD.BCST  HALF, Z0, Z1
	VFMADD213PD.BCST  ONE, Z0, Z1
	VMULPD            Z1, Z0, Z0                 // y = e^(x/16) − 1
	VADDPD.BCST       TWO, Z0, Z1                // four squarings: y ← y·(y + 2)
	VMULPD            Z1, Z0, Z0
	VADDPD.BCST       TWO, Z0, Z1
	VMULPD            Z1, Z0, Z0
	VADDPD.BCST       TWO, Z0, Z1
	VMULPD            Z1, Z0, Z0
	VADDPD.BCST       TWO, Z0, Z1
	VFMADD213PD.BCST  ONE, Z1, Z0                // the last one fused with the +1
	VPMOVSXDQ         Y3, Z2                     // · 2^k: biased exponent into bits 52…62
	VPADDQ.BCST       BIAS, Z2, Z2
	VPSLLQ            $52, Z2, Z2
	VMULPD            Z2, Z0, Z0
	VMOVUPD           Z0, K1, (DI)(AX*8)
	ADDQ              $8, AX
	CMPQ              AX, CX
	JLT               wexploop
	MOVQ              CX, AX                     // a last block of four overshot by four

wexpdone:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func weightedSumsLanesWide(dst, w, x *float64, dim, stride, n int, scale float64)
//
// weightedSumsLanes eight consecutive p at a time: each sums d ascending
// from +0, then is scaled.
TEXT ·weightedSumsLanesWide(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         w+8(FP), BX
	MOVQ         x+16(FP), SI
	MOVQ         dim+24(FP), R10
	MOVQ         stride+32(FP), R11
	MOVQ         n+40(FP), CX
	VBROADCASTSD scale+48(FP), Z3
	SHLQ         $3, R11                  // stride in bytes
	XORQ         AX, AX

wwsploop:
	BLOCKMASK
	LEAQ   (SI)(AX*8), R8                 // &x[0·stride+p]
	XORQ   DX, DX
	VPXORQ Z0, Z0, Z0

wwsdloop:
	VMOVUPD.Z    (R8), K1, Z2
	VBROADCASTSD (BX)(DX*8), Z1
	VMULPD       Z2, Z1, Z1
	VADDPD       Z1, Z0, Z0
	ADDQ         R11, R8
	INCQ         DX
	CMPQ         DX, R10
	JLT          wwsdloop

	VMULPD  Z3, Z0, Z0
	VMOVUPD Z0, K1, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     wwsploop

	VZEROUPPER
	RET

// func negSqDistLanesWide(dst, w, pt, x *float64, dim, stride, n int)
//
// negSqDistLanes eight consecutive r at a time: difference, square, weight
// and add are four separate operations, and the final negation a sign flip.
TEXT ·negSqDistLanesWide(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         w+8(FP), BX
	MOVQ         pt+16(FP), R9
	MOVQ         x+24(FP), SI
	MOVQ         dim+32(FP), R10
	MOVQ         stride+40(FP), R11
	MOVQ         n+48(FP), CX
	MOVQ         $0x8000000000000000, DX
	VPBROADCASTQ DX, Z3                   // the sign bit in every lane
	SHLQ         $3, R11
	XORQ         AX, AX

wsdrloop:
	BLOCKMASK
	LEAQ   (SI)(AX*8), R8
	XORQ   DX, DX
	VPXORQ Z0, Z0, Z0

wsddloop:
	VMOVUPD.Z    (R8), K1, Z2
	VBROADCASTSD (R9)(DX*8), Z1
	VSUBPD       Z2, Z1, Z1               // pt[d] − x
	VMULPD       Z1, Z1, Z1
	VBROADCASTSD (BX)(DX*8), Z2
	VMULPD       Z1, Z2, Z2
	VADDPD       Z2, Z0, Z0
	ADDQ         R11, R8
	INCQ         DX
	CMPQ         DX, R10
	JLT          wsddloop

	VPXORQ  Z3, Z0, Z0
	VMOVUPD Z0, K1, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     wsdrloop

	VZEROUPPER
	RET

// func sqDiffsLanesWide(dst, x *float64, dim, stride, n int)
//
// sqDiffsLanes eight consecutive j at a time, difference then square, the
// row's last block of (n−1) mod 8 + 1 elements under the opmask K2.
TEXT ·sqDiffsLanesWide(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  x+8(FP), SI
	MOVQ  dim+16(FP), R10
	MOVQ  stride+24(FP), R11
	MOVQ  n+32(FP), R9
	SHLQ  $3, R11                         // stride in bytes
	MOVQ  R9, CX
	DECQ  CX
	ANDQ  $7, CX
	NEGQ  CX
	ADDQ  $7, CX                          // 8 − the last block's lanes
	MOVL  $0xFF, R12
	SHRL  CX, R12
	KMOVW R12, K2
	LEAQ  -8(R9)(CX*1), BX                // elements in the blocks before it

wsqdloop:
	VBROADCASTSD (SI), Z1                 // x[d·stride], the row's own sample
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          wsqlast

wsqjloop:
	VMOVUPD (SI)(AX*8), Z2
	VSUBPD  Z2, Z1, Z0                    // x_r − x_s
	VMULPD  Z0, Z0, Z0
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, BX
	JLT     wsqjloop

wsqlast:
	VMOVUPD.Z (SI)(AX*8), K2, Z2
	VSUBPD    Z2, Z1, Z0
	VMULPD    Z0, Z0, Z0
	VMOVUPD   Z0, K2, (DI)(AX*8)

	ADDQ R11, SI
	LEAQ (DI)(R9*8), DI
	DECQ R10
	JNZ  wsqdloop

	VZEROUPPER
	RET
