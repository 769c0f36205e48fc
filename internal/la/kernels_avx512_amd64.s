//go:build !purego

#include "textflag.h"

// The AVX-512 tier (AVX512F instructions only; DESIGN.md §6.1). The lane
// contract is kernels_amd64.s's: per lane a VMULPD then a VADDPD, never
// fused. A ZMM register holds the four lanes of two products side by side.

// The VPERMT2PD indices of forwardBlock4Wide. Table 1 is [x0 | x1] and table 2
// [x2 | x3], four lanes each; index bit 3 picks table 2. fwdT02 gathers lane
// 0 of x0 … x3, then lane 2; fwdT13 lanes 1 and 3. fwdU01 and fwdU23 undo
// the pair: from [y0 | y2] and [y1 | y3] they rebuild lanes 0 … 3 of x0, x1
// and of x2, x3.
DATA fwdT02<>+0(SB)/8, $0
DATA fwdT02<>+8(SB)/8, $4
DATA fwdT02<>+16(SB)/8, $8
DATA fwdT02<>+24(SB)/8, $12
DATA fwdT02<>+32(SB)/8, $2
DATA fwdT02<>+40(SB)/8, $6
DATA fwdT02<>+48(SB)/8, $10
DATA fwdT02<>+56(SB)/8, $14
GLOBL fwdT02<>(SB), RODATA|NOPTR, $64

DATA fwdT13<>+0(SB)/8, $1
DATA fwdT13<>+8(SB)/8, $5
DATA fwdT13<>+16(SB)/8, $9
DATA fwdT13<>+24(SB)/8, $13
DATA fwdT13<>+32(SB)/8, $3
DATA fwdT13<>+40(SB)/8, $7
DATA fwdT13<>+48(SB)/8, $11
DATA fwdT13<>+56(SB)/8, $15
GLOBL fwdT13<>(SB), RODATA|NOPTR, $64

DATA fwdU01<>+0(SB)/8, $0
DATA fwdU01<>+8(SB)/8, $8
DATA fwdU01<>+16(SB)/8, $4
DATA fwdU01<>+24(SB)/8, $12
DATA fwdU01<>+32(SB)/8, $1
DATA fwdU01<>+40(SB)/8, $9
DATA fwdU01<>+48(SB)/8, $5
DATA fwdU01<>+56(SB)/8, $13
GLOBL fwdU01<>(SB), RODATA|NOPTR, $64

DATA fwdU23<>+0(SB)/8, $2
DATA fwdU23<>+8(SB)/8, $10
DATA fwdU23<>+16(SB)/8, $6
DATA fwdU23<>+24(SB)/8, $14
DATA fwdU23<>+32(SB)/8, $3
DATA fwdU23<>+40(SB)/8, $11
DATA fwdU23<>+48(SB)/8, $7
DATA fwdU23<>+56(SB)/8, $15
GLOBL fwdU23<>(SB), RODATA|NOPTR, $64

// func forwardBlock4Wide(r0, r1, r2, r3, b0, b1, b2, b3 *float64, i int)
//
// One block of four rows of forwardSubst for four right-hand sides. The
// prefix: for every four columns of [0, i) each row chunk is broadcast to
// both halves of a ZMM (VBROADCASTF64X4) and multiplies two right-hand-side
// pairs [b0 | b1] and [b2 | b3] (VINSERTF64X4), eight accumulators Z16–Z23,
// row r's at Z(16+2r) and Z(17+2r). The finish, per row and for all four
// right-hand sides at once in one YMM, lane k being right-hand side k: a
// VPERMT2PD transpose turns the accumulators into the lane vectors l0 … l3
// and the chunks bk[i:i+4] into the entries b[i+r]; then, as finishRow
// does it, s = l0 plus the row's tail products L[i+r, i+t]·x_t for t < r in
// order, (s + l2) + (l1 + l3), b[i+r] minus that, and one VDIVPD by the
// pivot gives x_r. The four x_r are transposed back and stored.
TEXT ·forwardBlock4Wide(SB), NOSPLIT, $0-72
	MOVQ r0+0(FP), SI
	MOVQ r1+8(FP), DI
	MOVQ r2+16(FP), R8
	MOVQ r3+24(FP), R9
	MOVQ b0+32(FP), R10
	MOVQ b1+40(FP), R11
	MOVQ b2+48(FP), R12
	MOVQ b3+56(FP), R13
	MOVQ i+64(FP), CX
	XORQ AX, AX
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23

	PCALIGN $64

fwdloop:
	VMOVUPD         (R10)(AX*8), Y24
	VINSERTF64X4    $1, (R11)(AX*8), Z24, Z24 // [b0 | b1]
	VMOVUPD         (R12)(AX*8), Y25
	VINSERTF64X4    $1, (R13)(AX*8), Z25, Z25 // [b2 | b3]
	VBROADCASTF64X4 (SI)(AX*8), Z26
	VBROADCASTF64X4 (DI)(AX*8), Z27
	VBROADCASTF64X4 (R8)(AX*8), Z28
	VBROADCASTF64X4 (R9)(AX*8), Z29
	VMULPD          Z26, Z24, Z0
	VMULPD          Z26, Z25, Z1
	VMULPD          Z27, Z24, Z2
	VMULPD          Z27, Z25, Z3
	VMULPD          Z28, Z24, Z4
	VMULPD          Z28, Z25, Z5
	VMULPD          Z29, Z24, Z6
	VMULPD          Z29, Z25, Z7
	VADDPD          Z0, Z16, Z16
	VADDPD          Z1, Z17, Z17
	VADDPD          Z2, Z18, Z18
	VADDPD          Z3, Z19, Z19
	VADDPD          Z4, Z20, Z20
	VADDPD          Z5, Z21, Z21
	VADDPD          Z6, Z22, Z22
	VADDPD          Z7, Z23, Z23
	ADDQ            $4, AX
	CMPQ            AX, CX
	JLT             fwdloop

	// Transpose: row r's [l0 | l2] into Z(2r), [l1 | l3] into Z(2r+1), and
	// the entries b[i] … b[i+3] into Y12 … Y15.
	VMOVUPD   fwdT02<>(SB), Z30
	VMOVUPD   fwdT13<>(SB), Z31
	VMOVAPD   Z16, Z0
	VMOVAPD   Z16, Z1
	VPERMT2PD Z17, Z30, Z0
	VPERMT2PD Z17, Z31, Z1
	VMOVAPD   Z18, Z2
	VMOVAPD   Z18, Z3
	VPERMT2PD Z19, Z30, Z2
	VPERMT2PD Z19, Z31, Z3
	VMOVAPD   Z20, Z4
	VMOVAPD   Z20, Z5
	VPERMT2PD Z21, Z30, Z4
	VPERMT2PD Z21, Z31, Z5
	VMOVAPD   Z22, Z6
	VMOVAPD   Z22, Z7
	VPERMT2PD Z23, Z30, Z6
	VPERMT2PD Z23, Z31, Z7
	VMOVUPD   (R10)(CX*8), Y24
	VINSERTF64X4 $1, (R11)(CX*8), Z24, Z24
	VMOVUPD   (R12)(CX*8), Y25
	VINSERTF64X4 $1, (R13)(CX*8), Z25, Z25
	VMOVAPD   Z24, Z12
	VMOVAPD   Z24, Z13
	VPERMT2PD Z25, Z30, Z12
	VPERMT2PD Z25, Z31, Z13
	VEXTRACTF64X4 $1, Z12, Y14
	VEXTRACTF64X4 $1, Z13, Y15

	// Row r's l2 into Y(8+r) and l1 + l3 into Y(2r+1); Y(2r) keeps l0.
	VEXTRACTF64X4 $1, Z1, Y8
	VADDPD        Y8, Y1, Y1
	VEXTRACTF64X4 $1, Z0, Y8
	VEXTRACTF64X4 $1, Z3, Y9
	VADDPD        Y9, Y3, Y3
	VEXTRACTF64X4 $1, Z2, Y9
	VEXTRACTF64X4 $1, Z5, Y10
	VADDPD        Y10, Y5, Y5
	VEXTRACTF64X4 $1, Z4, Y10
	VEXTRACTF64X4 $1, Z7, Y11
	VADDPD        Y11, Y7, Y7
	VEXTRACTF64X4 $1, Z6, Y11

	// Row 0: x0 = (b[i] − ((l0 + l2) + (l1 + l3))) / L[i, i], into Y0.
	VADDPD       Y8, Y0, Y0
	VADDPD       Y1, Y0, Y0
	VSUBPD       Y0, Y12, Y0
	VBROADCASTSD (SI)(CX*8), Y8
	VDIVPD       Y8, Y0, Y0

	// Row 1: one tail product, x1 into Y2.
	VBROADCASTSD (DI)(CX*8), Y1
	VMULPD       Y0, Y1, Y1
	VADDPD       Y1, Y2, Y2
	VADDPD       Y9, Y2, Y2
	VADDPD       Y3, Y2, Y2
	VSUBPD       Y2, Y13, Y2
	VBROADCASTSD 8(DI)(CX*8), Y9
	VDIVPD       Y9, Y2, Y2

	// Row 2: two, x2 into Y4.
	VBROADCASTSD (R8)(CX*8), Y1
	VMULPD       Y0, Y1, Y1
	VADDPD       Y1, Y4, Y4
	VBROADCASTSD 8(R8)(CX*8), Y1
	VMULPD       Y2, Y1, Y1
	VADDPD       Y1, Y4, Y4
	VADDPD       Y10, Y4, Y4
	VADDPD       Y5, Y4, Y4
	VSUBPD       Y4, Y14, Y4
	VBROADCASTSD 16(R8)(CX*8), Y10
	VDIVPD       Y10, Y4, Y4

	// Row 3: three, x3 into Y6.
	VBROADCASTSD (R9)(CX*8), Y1
	VMULPD       Y0, Y1, Y1
	VADDPD       Y1, Y6, Y6
	VBROADCASTSD 8(R9)(CX*8), Y1
	VMULPD       Y2, Y1, Y1
	VADDPD       Y1, Y6, Y6
	VBROADCASTSD 16(R9)(CX*8), Y1
	VMULPD       Y4, Y1, Y1
	VADDPD       Y1, Y6, Y6
	VADDPD       Y11, Y6, Y6
	VADDPD       Y7, Y6, Y6
	VSUBPD       Y6, Y15, Y6
	VBROADCASTSD 24(R9)(CX*8), Y11
	VDIVPD       Y11, Y6, Y6

	// Back to one chunk per right-hand side: [x0 | x2] and [x1 | x3]
	// transposed into [b0 | b1] and [b2 | b3]. Right-hand sides that alias
	// hold the same bits, so their stores agree.
	VMOVUPD       fwdU01<>(SB), Z30
	VMOVUPD       fwdU23<>(SB), Z31
	VINSERTF64X4  $1, Y4, Z0, Z0
	VINSERTF64X4  $1, Y6, Z2, Z2
	VMOVAPD       Z0, Z1
	VPERMT2PD     Z2, Z30, Z0
	VPERMT2PD     Z2, Z31, Z1
	VMOVUPD       Y0, (R10)(CX*8)
	VEXTRACTF64X4 $1, Z0, (R11)(CX*8)
	VMOVUPD       Y1, (R12)(CX*8)
	VEXTRACTF64X4 $1, Z1, (R13)(CX*8)
	VZEROUPPER
	RET
