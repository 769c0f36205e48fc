//go:build !purego

#include "textflag.h"

// AVX2 bodies for the lane-accumulation loops of Dot, the 2×4 tiles of
// tile.dots and forwardSubst's one- and multi-RHS blocks (matrix.go states
// the lane contract), the multi-RHS block with its finish, and the fused
// strips of the Cholesky factorization and the inverse (below). Every kernel
// keeps one product's four lanes in one YMM register and issues VMULPD then
// VADDPD per four elements, which is, lane by lane, the scalar loop's
// sequence of IEEE operations. Never VFMADD*: a fused multiply-add rounds
// once where the scalar body rounds twice, and the results would no longer
// be bit-equal. Loads are unaligned (VMOVUPD / VEX memory operands); n is a
// positive multiple of 4. Every loop head — the target of every branch
// back — is 64-byte aligned (PCALIGN $64), so how a loop sits against the
// fetch blocks does not follow the size of the code before it;
// TestLoopHeadsAligned holds the rule.

// func dotLanes(a, b *float64, n int, s *[4]float64)
TEXT ·dotLanes(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	MOVQ   s+24(FP), DX
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0

	PCALIGN $64

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

	PCALIGN $64

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

// ZERO8 clears ROWS2X4's eight accumulators and its index.
#define ZERO8 \
	XORQ   AX, AX; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// ROWS2X4(ra, rb) accumulates the lanes of rows ra and rb against the four
// vectors R10–R13 over [0, CX): Y0–Y3 for ra, Y4–Y7 for rb, one per vector.
// Each row is loaded once per four elements for all four vectors. Uses
// Y8–Y12 and AX.
#define ROWS2X4(ra, rb) \
	ZERO8; \
	LOOP2X4(ra, rb)

// LOOP2X4(ra, rb) is ROWS2X4's loop alone: it adds the lanes over [AX, CX),
// AX < CX, onto the accumulators as they are. Its head is 64-byte aligned
// like every loop head here, and its branch back counts the 24 instructions
// after the PCALIGN.
#define LOOP2X4(ra, rb) \
	PCALIGN $64; \
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

// The fused strips behind the Cholesky factorization and the inverse
// (cholesky.go): each call runs a whole strip of 2×4 tiles, every tile's
// prefix through ROWS2X4's loop and its finish in registers, so no lane
// leaves a register between the prefix and the store of its result. The
// finish is the Go tile code's sequence of IEEE operations written out:
// entry (r, c) of a tile is lane 0 plus its tail products in order, then
// (· + l2) + (l1 + l3), then whatever the routine does with that Dot.
// cholStrip4 and invWStrip4 finish two tiles that share every column
// operand at once, their four rows side by side in one YMM register. The
// rows of the third operand, L or W, are stepped incrementally: step is the
// distance in elements from the first row to the next, and each row's
// distance to the one after it is one more than the last's in the packed
// lower rows of cholStrip4, invWStrip4 and gemmStrip, one less in
// wtwStrip's upper-packed rows.

// NEXTROW(from, to, change) sets to to the row after from: from plus the
// step R8 (bytes), which then changes by change bytes (8 or −8).
#define NEXTROW(from, to, change) \
	MOVQ from, to; \
	ADDQ R8, to; \
	ADDQ $change, R8

// GATHER4(a, b, c, d, dst) loads the elements a–d, one of each of the rows
// R10–R13, into the four lanes of dst, through X8 and X9.
#define GATHER4(a, b, c, d, dst) \
	VMOVSD      a, X8; \
	VMOVHPD     b, X8, X8; \
	VMOVSD      c, X9; \
	VMOVHPD     d, X9, X9; \
	VINSERTF128 $1, X9, Y8, dst

// CLAMPROWS(row1, row2, rows) sets R11–R13 to the three packed lower rows
// after R10, each row past the DX rows that remain repeating the one before it; the
// labels are the caller's.
#define CLAMPROWS(row1, row2, rows) \
	MOVQ R10, R11; \
	CMPQ DX, $2; \
	JLT  row1; \
	NEXTROW(R10, R11, 8); \
row1: \
	MOVQ R11, R12; \
	CMPQ DX, $3; \
	JLT  row2; \
	NEXTROW(R11, R12, 8); \
row2: \
	MOVQ R12, R13; \
	CMPQ DX, $4; \
	JLT  rows; \
	NEXTROW(R12, R13, 8); \
rows:

// CHOL4(d, r, ya, yb, xb, tails) finishes column j+c of a four-row Cholesky
// tile, d = 8c and r the row register of L[j+c]: rows 0 and 1's lanes from
// the spill (DX) and rows 2 and 3's in ya = Yc and yb = Y(4+c) become four
// lane vectors over the rows, tails adds the c tail terms, and the entry is
// (x[j+c] − ((l0 + tails + l2) + (l1 + l3))) / L[j+c][j+c] in yb (whose
// low half is xb), stored to the four rows.
#define CHOL4(d, r, ya, yb, xb, tails) \
	VMOVUPD      (4*d)(DX), Y8; \
	VMOVUPD      (128+4*d)(DX), Y9; \
	TRANSPOSE(Y8, Y9, ya, yb, Y10, Y11, Y12, Y13); \
	VADDPD       yb, Y9, Y9; \
	tails; \
	VADDPD       ya, Y8, Y8; \
	VADDPD       Y9, Y8, Y8; \
	VMOVSD       d(SI)(CX*8), X10; \
	VMOVHPD      d(DI)(CX*8), X10, X10; \
	VMOVSD       d(R14)(CX*8), X11; \
	VMOVHPD      d(R15)(CX*8), X11, X11; \
	VINSERTF128  $1, X11, Y10, Y10; \
	VSUBPD       Y8, Y10, Y8; \
	VBROADCASTSD d(r)(CX*8), Y10; \
	VDIVPD       Y10, Y8, yb; \
	VEXTRACTF128 $1, yb, X10; \
	VMOVSD       xb, d(SI)(CX*8); \
	VMOVHPD      xb, d(DI)(CX*8); \
	VMOVSD       X10, d(R14)(CX*8); \
	VMOVHPD      X10, d(R15)(CX*8)

// TAIL4(l, res) adds the tail product l·res into lane 0 of all four rows.
#define TAIL4(l, res) \
	VBROADCASTSD l, Y10; \
	VMULPD       res, Y10, Y10; \
	VADDPD       Y10, Y8, Y8

// PREFIX4(spill, from, spilled, summed) runs a four-row tile's prefix: the
// rows SI and DI against R10–R13 over [0, CX), whose lanes go to spill,
// then the rows R14 and R15 over [from, CX), whose lanes stay in Y0–Y7.
// The labels are the caller's, one pair per use.
#define PREFIX4(spill, from, spilled, summed) \
	ZERO8; \
	TESTQ   CX, CX; \
	JZ      spilled; \
	LOOP2X4(SI, DI); \
spilled: \
	VMOVUPD Y0, (spill); \
	VMOVUPD Y1, 32(spill); \
	VMOVUPD Y2, 64(spill); \
	VMOVUPD Y3, 96(spill); \
	VMOVUPD Y4, 128(spill); \
	VMOVUPD Y5, 160(spill); \
	VMOVUPD Y6, 192(spill); \
	VMOVUPD Y7, 224(spill); \
	ZERO8; \
	CMPQ    CX, $from; \
	JLE     summed; \
	MOVQ    $from, AX; \
	LOOP2X4(R14, R15); \
summed:

// DIAG4(d, ya, yb, tails, lane, bit) is CHOL4's sum for column j+c of the
// diagonal tile, d = 8c, where row c is L[j+c] itself: s = x[j+c] − Dot in
// Y8 for all four rows, then the pivot rule on row c (lane, a VPERMPD
// broadcast of lane c, and bit = 1 << c) — s ≤ 0 or NaN ends the strip with
// a failure — √s in lane c of yb and s / √s of row c in the rows below it.
// The rows above row c have no column j+c; their lanes are never stored.
#define DIAG4(d, ya, yb, tails, lane, bit) \
	VMOVUPD      (4*d)(DX), Y8; \
	VMOVUPD      (128+4*d)(DX), Y9; \
	TRANSPOSE(Y8, Y9, ya, yb, Y10, Y11, Y12, Y13); \
	VADDPD       yb, Y9, Y9; \
	tails; \
	VADDPD       ya, Y8, Y8; \
	VADDPD       Y9, Y8, Y8; \
	VMOVSD       d(SI)(CX*8), X10; \
	VMOVHPD      d(DI)(CX*8), X10, X10; \
	VMOVSD       d(R14)(CX*8), X11; \
	VMOVHPD      d(R15)(CX*8), X11, X11; \
	VINSERTF128  $1, X11, Y10, Y10; \
	VSUBPD       Y8, Y10, Y8; \
	VXORPD       Y11, Y11, Y11; \
	VCMPPD       $0x1A, Y11, Y8, Y11; \
	VMOVMSKPD    Y11, AX; \
	TESTQ        $bit, AX; \
	JNZ          chol4fail; \
	VSQRTPD      Y8, Y11; \
	VPERMPD      $lane, Y11, Y10; \
	VDIVPD       Y10, Y8, yb; \
	VBLENDPD     $bit, Y11, yb, yb

// DIAGTAIL(lane, res) adds the tail products of an earlier column t of the
// diagonal tile, res = its results, into lane 0 of all four rows: row r's
// is x_r[j+t]·L[j+c][j+t] = res[r]·res[c], lane the broadcast of lane c.
#define DIAGTAIL(lane, res) \
	VPERMPD $lane, res, Y10; \
	VMULPD  res, Y10, Y10; \
	VADDPD  Y10, Y8, Y8

// func cholStrip4(x0, x1, x2, x3, l *float64, tiles, step, diag int, spill *[32]float64) int
//
// cholRows' full off-diagonal tiles of two row pairs with the same tiles:
// x0 … x3 are the rows from the block column's first index k0, l is row k0
// of L from k0 on, and tile t covers columns j = k0+4t … j+3, every one left
// of the rows' diagonals. Entry c of row x becomes (x[j+c] − D) /
// L[j+c][j+c], D its Dot over [k0, j+c): the prefix over [k0, j), lane 0
// plus the c tail terms x[j+t]·L[j+c][j+t] from the entries just produced —
// cholTile's chain, with every division chain carrying the four rows in a
// YMM register. A tile's prefix runs as two ROWS2X4 passes (PREFIX4), rows
// x0 and x1 first, whose lanes wait in spill while rows x2 and x3 take the
// accumulators. When diag is 0, x2 and x3 may be x0 and x1, which is how a
// lone row pair runs: CHOL4 loads all four rows' entries of a column before
// it stores any, so aliased rows compute the same bits and store them twice.
// When diag is not 0 the rows are a diagonal block's x0 = row j … x3 = row
// j+3, j the first column past the full tiles, and the strip ends with their
// diagonal tile: the lower triangle of columns j … j+3, whose rows of L are
// x0 … x3 themselves, with cholRows' pivot rule on each diagonal entry. It
// returns 1 when a pivot fails (the rows are then left part-written), else 0.
TEXT ·cholStrip4(SB), NOSPLIT, $0-80
	MOVQ x0+0(FP), SI
	MOVQ x1+8(FP), DI
	MOVQ x2+16(FP), R14
	MOVQ x3+24(FP), R15
	MOVQ l+32(FP), R10
	MOVQ tiles+40(FP), BX
	MOVQ step+48(FP), R8
	MOVQ spill+64(FP), DX
	SHLQ $3, R8
	XORQ CX, CX
	TESTQ BX, BX
	JZ   chol4diag

	PCALIGN $64

chol4tile:
	NEXTROW(R10, R11, 8)
	NEXTROW(R11, R12, 8)
	NEXTROW(R12, R13, 8)
	PREFIX4(DX, 0, chol4spill, chol4finish)
	CHOL4(0, R10, Y0, Y4, X4, NOP)
	CHOL4(8, R11, Y1, Y5, X5, TAIL4((R11)(CX*8), Y4))
	CHOL4(16, R12, Y2, Y6, X6, TAIL4((R12)(CX*8), Y4); TAIL4(8(R12)(CX*8), Y5))
	CHOL4(24, R13, Y3, Y7, X7, TAIL4((R13)(CX*8), Y4); TAIL4(8(R13)(CX*8), Y5); TAIL4(16(R13)(CX*8), Y6))
	ADDQ $4, CX
	DECQ BX
	JZ   chol4diag
	NEXTROW(R13, R10, 8)
	JMP  chol4tile

chol4diag:
	CMPQ diag+56(FP), $0
	JEQ  chol4done
	MOVQ SI, R10
	MOVQ DI, R11
	MOVQ R14, R12
	MOVQ R15, R13
	PREFIX4(DX, 0, chol4dspill, chol4dfinish)

	DIAG4(0, Y0, Y4, NOP, 0x00, 1)
	VEXTRACTF128 $1, Y4, X10
	VMOVSD       X4, (SI)(CX*8)
	VMOVHPD      X4, (DI)(CX*8)
	VMOVSD       X10, (R14)(CX*8)
	VMOVHPD      X10, (R15)(CX*8)

	DIAG4(8, Y1, Y5, DIAGTAIL(0x55, Y4), 0x55, 2)
	VEXTRACTF128 $1, Y5, X10
	VMOVHPD      X5, 8(DI)(CX*8)
	VMOVSD       X10, 8(R14)(CX*8)
	VMOVHPD      X10, 8(R15)(CX*8)

	DIAG4(16, Y2, Y6, DIAGTAIL(0xAA, Y4); DIAGTAIL(0xAA, Y5), 0xAA, 4)
	VEXTRACTF128 $1, Y6, X10
	VMOVSD       X10, 16(R14)(CX*8)
	VMOVHPD      X10, 16(R15)(CX*8)

	DIAG4(24, Y3, Y7, DIAGTAIL(0xFF, Y4); DIAGTAIL(0xFF, Y5); DIAGTAIL(0xFF, Y6), 0xFF, 8)
	VEXTRACTF128 $1, Y7, X10
	VMOVHPD      X10, 24(R15)(CX*8)

chol4done:
	VZEROUPPER
	MOVQ $0, ret+72(FP)
	RET

chol4fail:
	VZEROUPPER
	MOVQ $1, ret+72(FP)
	RET

// INV4(d, r, ya, yb, tails) finishes entry c of an inverse block for the
// four W columns of invWStrip4, d = 8c and r the row register of L[kb+c]:
// lanes from the spill (BX) and from ya = Yc and yb = Y(4+c) become lane
// vectors over the columns, tails adds the c tail terms, the combine
// (l0 + l2) + (l1 + l3) follows, and the columns j0 and j0+4 add
// L[kb+c][j0]·w00a and L[kb+c][j0+4]·w00b — Y14 = [w00a, −0, w00b, −0], so
// the other two add −0, which leaves every value as it is — before the
// negation (Y15, the sign bit) and the division into yb.
#define INV4(d, r, ya, yb, tails) \
	VMOVUPD      (4*d)(BX), Y8; \
	VMOVUPD      (128+4*d)(BX), Y9; \
	TRANSPOSE(Y8, Y9, ya, yb, Y10, Y11, Y12, Y13); \
	VADDPD       yb, Y9, Y9; \
	tails; \
	VADDPD       ya, Y8, Y8; \
	VADDPD       Y9, Y8, Y8; \
	VMOVSD       -8(r), X10; \
	VMOVSD       24(r), X11; \
	VINSERTF128  $1, X11, Y10, Y10; \
	VMULPD       Y14, Y10, Y10; \
	VADDPD       Y10, Y8, Y8; \
	VXORPD       Y15, Y8, Y8; \
	VBROADCASTSD d(r)(CX*8), Y10; \
	VDIVPD       Y10, Y8, yb

// STOREA(d, x) stores the first two W columns' entry c, d = 8c, from x;
// STOREB(d, y) the last two's from y's upper half.
#define STOREA(d, x) \
	VMOVSD  x, d(SI)(CX*8); \
	VMOVHPD x, d(DI)(CX*8)

#define STOREB(d, y) \
	VEXTRACTF128 $1, y, X10; \
	VMOVSD       X10, d(R14)(CX*8); \
	VMOVHPD      X10, d(R15)(CX*8)

// func invWStrip4(xa, ya, xb, yb, l *float64, rows, step int, w00a, w00b float64, spill *[32]float64)
//
// cholInverseW's column pairs j0, j1 = j0+1 (xa, ya) and j0+4, j1+4 (xb,
// yb) below row j1, W's columns as upper rows of wt, every pointer from row
// j1 on; l is row j1 of L from column j1 on and rows = n − j1. Block b
// covers rows kb = j1+4b … kb+3 below n: entry c of column j0 is
// −(D + L[kb+c][j0]·w00a) / L[kb+c][kb+c], w00a = W[j0][j0], and of column j1
// −D / L[kb+c][kb+c], lane 0 of each Dot D taking the c tail terms
// L[kb+c][kb+t]·W[kb+t] first — invTile's chain, which the first and last
// blocks also follow when they hold fewer rows. Rows past n − 1 repeat the
// last, so their Dots read nothing outside L, and their entries are never
// finished. The two pairs' blocks coincide from row j1+4 on, where the
// second pair's start, so one tile serves both and every division chain
// carries four columns. The first pair's prefix is [j1, kb), the second's
// [j1+4, kb) — the second ROWS2X4 pass starts four elements in — and the
// second pair's rows j1 … j1+3, above its own diagonal, are neither read
// nor written: its entries of the first block are never stored, and row
// j1+4's, set beforehand like row j1's, is put in their place in the
// second. The column pair j0+4, j1+4 is finished the same way, with
// w00b = W[j0+4][j0+4]. The closed forms W[j1][j0], W[j1][j1],
// W[j1+4][j0+4] and W[j1+4][j1+4] must be set, so rows is at least 5.
TEXT ·invWStrip4(SB), NOSPLIT, $0-80
	MOVQ        xa+0(FP), SI
	MOVQ        ya+8(FP), DI
	MOVQ        xb+16(FP), R14
	MOVQ        yb+24(FP), R15
	MOVQ        l+32(FP), R10
	MOVQ        rows+40(FP), DX
	MOVQ        step+48(FP), R8
	MOVQ        spill+72(FP), BX
	SHLQ        $3, R8
	VPCMPEQQ    Y15, Y15, Y15
	VPSLLQ      $63, Y15, Y15
	VMOVSD      w00a+56(FP), X14
	VMOVSD      w00b+64(FP), X13
	VUNPCKLPD   X15, X14, X14
	VUNPCKLPD   X15, X13, X13
	VINSERTF128 $1, X13, Y14, Y14
	XORQ        CX, CX

	PCALIGN $64

inv4block:
	CLAMPROWS(inv4row1, inv4row2, inv4rows)
	PREFIX4(BX, 4, inv4spill, inv4lanes)
	TESTQ   CX, CX
	JNZ     inv4entry0

	// The first block: entry 0 of the first pair is row j1, set; the
	// second pair has no rows here.
	VMOVSD  (SI), X4
	VMOVHPD (DI), X4, X4
	JMP     inv4entry1

inv4entry0:
	INV4(0, R10, Y0, Y4, NOP)
	STOREA(0, X4)
	CMPQ        CX, $4
	JNE         inv4store0
	// The second block: entry 0 of the second pair is row j1+4, set.
	VMOVSD      (R14)(CX*8), X10
	VMOVHPD     (R15)(CX*8), X10, X10
	VINSERTF128 $1, X10, Y4, Y4
	JMP         inv4entry1

inv4store0:
	STOREB(0, Y4)

inv4entry1:
	CMPQ  DX, $1
	JLE   inv4done
	INV4(8, R11, Y1, Y5, TAIL4((R11)(CX*8), Y4))
	STOREA(8, X5)
	TESTQ CX, CX
	JZ    inv4entry2
	STOREB(8, Y5)

inv4entry2:
	CMPQ  DX, $2
	JLE   inv4done
	INV4(16, R12, Y2, Y6, TAIL4((R12)(CX*8), Y4); TAIL4(8(R12)(CX*8), Y5))
	STOREA(16, X6)
	TESTQ CX, CX
	JZ    inv4entry3
	STOREB(16, Y6)

inv4entry3:
	CMPQ  DX, $3
	JLE   inv4done
	INV4(24, R13, Y3, Y7, TAIL4((R13)(CX*8), Y4); TAIL4(8(R13)(CX*8), Y5); TAIL4(16(R13)(CX*8), Y6))
	STOREA(24, X7)
	TESTQ CX, CX
	JZ    inv4next
	STOREB(24, Y7)

inv4next:
	CMPQ DX, $4
	JLE  inv4done
	SUBQ $4, DX
	ADDQ $4, CX
	NEXTROW(R13, R10, 8)
	JMP  inv4block

inv4done:
	VZEROUPPER
	RET

// QUADDOTS(len, tail, tailloop, combined) is a whole tile of Dots over
// [0, len) of the rows SI and DI against R10–R13: the prefix (CX = len &^ 3
// elements) in Y0–Y7, a transpose so that Yl holds lane l of row SI's four
// Dots and Y(4+l) row DI's, the ≤ 3 tail products into lane 0 in order, and
// the combine, leaving row SI's four Dots in Y0 and row DI's in Y4. The
// labels are the caller's, one set per kernel.
#define QUADDOTS(len, tail, tailloop, combined) \
	ZERO8; \
	TESTQ CX, CX; \
	JZ    tail; \
	LOOP2X4(SI, DI); \
tail: \
	TRANSPOSE(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11); \
	TRANSPOSE(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11); \
	CMPQ AX, len; \
	JGE  combined; \
	PCALIGN $64; \
tailloop: \
	GATHER4((R10)(AX*8), (R11)(AX*8), (R12)(AX*8), (R13)(AX*8), Y10); \
	VBROADCASTSD (SI)(AX*8), Y9; \
	VMULPD       Y9, Y10, Y9; \
	VADDPD       Y9, Y0, Y0; \
	VBROADCASTSD (DI)(AX*8), Y9; \
	VMULPD       Y9, Y10, Y9; \
	VADDPD       Y9, Y4, Y4; \
	INCQ         AX; \
	CMPQ         AX, len; \
	JLT          tailloop; \
combined: \
	VADDPD Y2, Y0, Y0; \
	VADDPD Y3, Y1, Y1; \
	VADDPD Y1, Y0, Y0; \
	VADDPD Y6, Y4, Y4; \
	VADDPD Y7, Y5, Y5; \
	VADDPD Y5, Y4, Y4

// func wtwStrip(x, y, w, iv, out *float64, quads, nlast, length, step int, w00 float64)
//
// The inverse's second phase for one pair of W rows i0 and i1 = i0+1 (x and
// y, upper rows of wt from column i1 on, length = n − i1) against upper rows
// j = 0 … i1 of wt four at a time, w being row 0 from column i1 and iv the
// same entry of inv. Each quad's eight Dots span [i1, n); row i0's then add
// w00·W[j][i0] (w00 = W[i0][i0]). The first quads, quads of them, hold
// only rows j ≤ i0: their entries go to inv's (j, i0) and (j, i1), the
// same offsets in inv as in wt. The last quad ends at row i1, the diagonal:
// nlast = 2 or 4 rows, the unused ones repeating row i1, and its Dots go to
// out (row i0's four, then row i1's) for the caller to store.
TEXT ·wtwStrip(SB), NOSPLIT, $0-80
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ w+16(FP), R10
	MOVQ iv+24(FP), DX
	SUBQ R10, DX                     // inv's entries lie DX bytes from wt's
	MOVQ quads+40(FP), BX
	MOVQ length+56(FP), CX
	ANDQ $-4, CX
	MOVQ step+64(FP), R8
	SHLQ $3, R8

	PCALIGN $64

wtwquad:
	NEXTROW(R10, R11, -8)
	TESTQ BX, BX
	JNZ   wtwfull
	CMPQ  nlast+48(FP), $2
	JNE   wtwfull
	MOVQ  R11, R12
	MOVQ  R11, R13
	JMP   wtwrows

wtwfull:
	NEXTROW(R11, R12, -8)
	NEXTROW(R12, R13, -8)

wtwrows:
	QUADDOTS(length+56(FP), wtwtail, wtwtailloop, wtwcombined)
	GATHER4(-8(R10), -8(R11), -8(R12), -8(R13), Y8)
	VBROADCASTSD w00+72(FP), Y9
	VMULPD       Y9, Y8, Y8
	VADDPD       Y8, Y0, Y0
	TESTQ        BX, BX
	JZ           wtwlast

	VEXTRACTF128 $1, Y4, X5
	VMOVSD       X4, (R10)(DX*1)
	VMOVHPD      X4, (R11)(DX*1)
	VMOVSD       X5, (R12)(DX*1)
	VMOVHPD      X5, (R13)(DX*1)
	VEXTRACTF128 $1, Y0, X1
	VMOVSD       X0, -8(R10)(DX*1)
	VMOVHPD      X0, -8(R11)(DX*1)
	VMOVSD       X1, -8(R12)(DX*1)
	VMOVHPD      X1, -8(R13)(DX*1)
	DECQ         BX
	NEXTROW(R13, R10, -8)
	JMP          wtwquad

wtwlast:
	MOVQ    out+32(FP), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y4, 32(AX)
	VZEROUPPER
	RET

// func gemmStrip(x, y, xo, yo, l *float64, quads, length, step int)
//
// gemmUpdate's full quads of one row pair: x and y are the rows from the
// block column's first index k0 on, l is row j0 of L from k0 on, and quad q
// subtracts the eight whole Dots over [k0, k0+length) of x and y against
// rows j0+4q … j0+4q+3 from xo[4q …] and yo[4q …], the rows' entries from
// column j0 on.
TEXT ·gemmStrip(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ xo+16(FP), R14
	MOVQ yo+24(FP), R15
	MOVQ l+32(FP), R10
	MOVQ quads+40(FP), BX
	MOVQ length+48(FP), CX
	ANDQ $-4, CX
	MOVQ step+56(FP), R8
	SHLQ $3, R8

	PCALIGN $64

gemmquad:
	NEXTROW(R10, R11, 8)
	NEXTROW(R11, R12, 8)
	NEXTROW(R12, R13, 8)
	QUADDOTS(length+48(FP), gemmtail, gemmtailloop, gemmcombined)
	VMOVUPD (R14), Y8
	VSUBPD  Y0, Y8, Y8
	VMOVUPD Y8, (R14)
	VMOVUPD (R15), Y8
	VSUBPD  Y4, Y8, Y8
	VMOVUPD Y8, (R15)
	DECQ    BX
	JZ      gemmdone
	ADDQ    $32, R14
	ADDQ    $32, R15
	NEXTROW(R13, R10, 8)
	JMP     gemmquad

gemmdone:
	VZEROUPPER
	RET
