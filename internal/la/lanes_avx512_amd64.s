//go:build !purego

#include "textflag.h"
#include "exptab_amd64.h"

// AVX-512 bodies (AVX512F alone) for four of the lane kernels of lanes.go:
// lanes_amd64.s's loops eight elements per ZMM, each element seeing the same
// IEEE operations in the same order as in the AVX2 body, so the same bits.
// n is any length ≥ 1; the last block of (n − 1) mod 8 + 1 elements runs
// under an opmask, whose masked loads read nothing past the operand (and
// zero the lanes masked off) and whose masked stores write nothing there.
// Every loop head is 64-byte aligned (PCALIGN).

// LASTBLOCK(n) sets BX to where the last block of n ≥ 1 elements starts and
// R13 to the opmask of its (n − 1) mod 8 + 1 lanes. Clobbers CX.
#define LASTBLOCK(n) \
	MOVQ n, CX; \
	DECQ CX; \
	ANDQ $7, CX; \
	NEGQ CX; \
	ADDQ $7, CX; \
	MOVL $0xFF, R13; \
	SHRL CX, R13; \
	LEAQ -8(n)(CX*1), BX

// BLOCKMASK sets K1 to the lanes of the block at AX: all eight before BX,
// the last block's R13 at BX. Clobbers R12.
#define BLOCKMASK \
	MOVL    $0xFF, R12; \
	CMPQ    AX, BX; \
	CMOVLGE R13, R12; \
	KMOVW   R12, K1

// func expLanesWide(dst, src *float64, n int, tab *[16][4]float64) int
//
// expLanes eight arguments at a time, with EXPBLOCK's instructions in their
// ZMM forms: a block is computed only when every lane of it is in
// [ARGMIN, ARGMAX] (a masked-off lane reads +0, which is, and is never
// stored), and the kernel stops at the first block that is not and returns
// the number of elements done; otherwise it returns n.
TEXT ·expLanesWide(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R10
	MOVQ tab+24(FP), R8
	LASTBLOCK(R10)
	XORQ AX, AX

	PCALIGN $64

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
	CMPQ              AX, R10
	JLT               wexploop
	MOVQ              R10, AX                    // the last block overshot n

wexpdone:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func weightedSumsLanesWide(dst, w, x *float64, dim, stride, n int, scale float64)
//
// weightedSumsLanes eight consecutive p at a time: each sums d ascending
// from +0, then is scaled. Each block, the last one masked, loops back to
// the d loop's head with its sums cleared.
TEXT ·weightedSumsLanesWide(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         w+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         dim+24(FP), R10
	MOVQ         stride+32(FP), R11
	MOVQ         n+40(FP), R9
	VBROADCASTSD scale+48(FP), Z3
	SHLQ         $3, R11                  // stride in bytes
	LASTBLOCK(R9)
	XORQ         AX, AX
	JMP          wwsblock

	PCALIGN $64

wwsdloop:
	VMOVUPD.Z    (CX), K1, Z2
	VBROADCASTSD (R8)(DX*8), Z1
	VMULPD       Z2, Z1, Z1
	VADDPD       Z1, Z0, Z0
	ADDQ         R11, CX
	INCQ         DX
	CMPQ         DX, R10
	JLT          wwsdloop

	VMULPD  Z3, Z0, Z0
	VMOVUPD Z0, K1, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, R9
	JGE     wwsdone

wwsblock:
	BLOCKMASK
	LEAQ   (SI)(AX*8), CX                 // &x[0·stride+p]
	XORQ   DX, DX
	VPXORQ Z0, Z0, Z0
	JMP    wwsdloop

wwsdone:
	VZEROUPPER
	RET

// func negSqDistLanesWide(dst, w, pt, x *float64, dim, stride, n int)
//
// negSqDistLanes eight consecutive r at a time: difference, square, weight
// and add are four separate operations, and the final negation a sign flip.
// Blocks go as in weightedSumsLanesWide.
TEXT ·negSqDistLanesWide(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         w+8(FP), R8
	MOVQ         pt+16(FP), R14
	MOVQ         x+24(FP), SI
	MOVQ         dim+32(FP), R10
	MOVQ         stride+40(FP), R11
	MOVQ         n+48(FP), R9
	MOVQ         $0x8000000000000000, DX
	VPBROADCASTQ DX, Z3                   // the sign bit in every lane
	SHLQ         $3, R11
	LASTBLOCK(R9)
	XORQ         AX, AX
	JMP          wsdblock

	PCALIGN $64

wsddloop:
	VMOVUPD.Z    (CX), K1, Z2
	VBROADCASTSD (R14)(DX*8), Z1
	VSUBPD       Z2, Z1, Z1               // pt[d] − x
	VMULPD       Z1, Z1, Z1
	VBROADCASTSD (R8)(DX*8), Z2
	VMULPD       Z1, Z2, Z2
	VADDPD       Z2, Z0, Z0
	ADDQ         R11, CX
	INCQ         DX
	CMPQ         DX, R10
	JLT          wsddloop

	VPXORQ  Z3, Z0, Z0
	VMOVUPD Z0, K1, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, R9
	JGE     wsddone

wsdblock:
	BLOCKMASK
	LEAQ   (SI)(AX*8), CX
	XORQ   DX, DX
	VPXORQ Z0, Z0, Z0
	JMP    wsddloop

wsddone:
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
	LASTBLOCK(R9)
	KMOVW R13, K2

	PCALIGN $64

wsqdloop:
	VBROADCASTSD (SI), Z1                 // x[d·stride], the row's own sample
	XORQ         AX, AX
	CMPQ         AX, BX
	JGE          wsqlast

	PCALIGN $64

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
