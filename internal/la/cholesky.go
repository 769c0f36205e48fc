package la

import (
	"errors"
	"math"
	"runtime"

	"repro/internal/mpx"
)

// ErrNotPositiveDefinite is returned by the Cholesky factorizations when a
// non-positive pivot is encountered.
var ErrNotPositiveDefinite = errors.New("la: matrix is not positive definite")

// jitterAttempts bounds choleskyJitter's escalation: one plain attempt, then
// jitters initial·{1, 10, …, 10¹⁰} relative to the mean diagonal.
const jitterAttempts = 12

// CholeskyJitterPacked factors the square matrix a (lower triangle read)
// into a new TriPacked with ParallelCholesky's blocked recurrence
// (blockSize, nworkers), retrying with a growing diagonal jitter when a is
// numerically indefinite. It returns the factor of a + jitter·I and the
// jitter actually used (0 on the first-try path); after jitterAttempts
// failures it gives up with ErrNotPositiveDefinite and the rung it would
// have tried next. This is the standard stabilization for GP kernel
// matrices whose conditioning degrades as samples cluster; the sparse-GP
// m×m factors take it. initial ≤ 0 selects the default 1e-10. Like
// ParallelCholesky the result is bitwise independent of nworkers, and a
// blockSize ≥ n call runs the unblocked recurrence.
func CholeskyJitterPacked(a *Matrix, initial float64, blockSize, nworkers int) (*TriPacked, float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, 0, errors.New("la: CholeskyJitterPacked of non-square matrix")
	}
	l := NewTriPacked(n, nil)
	jitter, err := choleskyJitter(l.data, a.Data, n, n, initial, blockSize, nworkers)
	if err != nil {
		return nil, jitter, err
	}
	return l, jitter, nil
}

// CholeskyJitterPackedInto is CholeskyJitterPacked over packed rows into a
// reused factor: a holds the lower triangle of a symmetric matrix, packed as
// a TriPacked factor is, and l, of a's order and not a, receives its factor.
// Only l is written — every attempt starts from a's own triangle, plus that
// attempt's jitter, which is why a must survive the attempts — and nothing
// here allocates in proportion to n. The LCM engine factors every
// likelihood evaluation's covariance so, in n(n+1)/2 doubles each.
func CholeskyJitterPackedInto(l, a *TriPacked, initial float64, blockSize, nworkers int) (float64, error) {
	if l.n != a.n {
		panic("la: CholeskyJitterPackedInto factor dimension mismatch")
	}
	return choleskyJitter(l.data, a.data, 0, a.n, initial, blockSize, nworkers)
}

// choleskyJitter is the one whole-matrix escalation, behind
// CholeskyJitterPacked and CholeskyJitterPackedInto: the order-n matrix
// whose lower rows are laid out in a by astride (row i at a[i·astride], or
// packed when astride is 0) is factored into the packed rows of l.
func choleskyJitter(l, a []float64, astride, n int, initial float64, blockSize, nworkers int) (float64, error) {
	if initial <= 0 {
		initial = 1e-10
	}
	// Scale jitter relative to the mean diagonal magnitude.
	meanDiag := 0.0
	for i := 0; i < n; i++ {
		meanDiag += math.Abs(a[rowStart(i, astride)+i])
	}
	if n > 0 {
		meanDiag /= float64(n)
	}
	if meanDiag == 0 { //gptlint:ignore float-eq exact-zero guard before using the mean diagonal as a jitter scale
		meanDiag = 1
	}
	jitter, next := 0.0, initial*meanDiag
	for attempt := 0; attempt < jitterAttempts; attempt++ {
		if choleskyInto(l, 0, a, astride, n, jitter, blockSize, nworkers) == nil {
			return jitter, nil
		}
		jitter, next = next, next*10
	}
	return jitter, ErrNotPositiveDefinite
}

// solveCholVec is the one Cholesky solve, (L·Lᵀ)·x = b into a new slice —
// forwardSubst then backwardSubstT over the same rows — behind
// TriPacked.SolveVec.
func solveCholVec(data, b []float64) []float64 {
	y := CopyVec(b)
	forwardSubst(data, y)
	backwardSubstT(data, y)
	return y
}

// MaxRHS is the most right-hand sides one TriPacked.ForwardSubst call — one
// pass over the factor — carries.
const MaxRHS = 4

// forwardSubst is the one forward-substitution recurrence, b[i] = (b[i] −
// Dot(L[i,:i], b[:i])) / L[i,i] for i < n, behind the dense and packed
// ForwardSubst and the AppendRows panel. It solves up to MaxRHS right-hand
// sides of one length n in one pass over L, each bit for bit its own solo
// solve: a right-hand side never enters another's arithmetic. L is packed:
// row i starts at data[i(i+1)/2].
//
// With a vector kernel the rows advance in blocks of four starting at
// multiples of four. Rows 4m … 4m+3 share the 4-aligned prefix [0, 4m) of
// their Dot exactly, so the kernels' passes over b[:4m] yield every lane of
// the block — dotRows4Lanes all four rows of one right-hand side, finished
// here by finishRow, and forwardBlock4 (AVX2) or forwardBlock4Wide
// (AVX-512) all four rows of two to four, finished in registers — and row
// 4m+r's r tail terms (columns 4m … 4m+r−1, into lane 0 in order) multiply
// the b entries the block has just produced. That is Dot's lane contract
// term for term: the block and the row-by-row loop agree bit for bit.
// Several right-hand sides read each row of L once per block instead of
// once each.
func forwardSubst(data []float64, bs ...[]float64) {
	if len(bs) == 0 {
		return
	}
	n := len(bs[0])
	for i := 0; i < n; {
		if vectorKernels && i >= vectorMin && i&3 == 0 && i+4 <= n {
			var o [4]int
			for r := range o {
				o[r] = rowStart(i+r, 0)
			}
			_ = data[o[3]+i+3] // the block's last element: the kernels read unchecked
			if len(bs) == 1 {
				b := bs[0]
				var s [16]float64
				dotRows4Lanes(&data[o[0]], &data[o[1]], &data[o[2]], &data[o[3]], &b[0], i, &s)
				for r, off := range o {
					finishRow(data[off+i:off+i+r+1], s[4*r:4*r+4:4*r+4], b, i, r)
				}
			} else {
				// Fewer than four right-hand sides repeat the last one in the
				// unused kernel slots: they compute the same bits, so the
				// kernel's stores through each alias agree.
				var p [MaxRHS]*float64
				for k := range p {
					p[k] = &bs[min(k, len(bs)-1)][0]
				}
				if wideKernels {
					forwardBlock4Wide(&data[o[0]], &data[o[1]], &data[o[2]], &data[o[3]], p[0], p[1], p[2], p[3], i)
				} else {
					forwardBlock4(&data[o[0]], &data[o[1]], &data[o[2]], &data[o[3]], p[0], p[1], p[2], p[3], i)
				}
			}
			i += 4
			continue
		}
		o := rowStart(i, 0)
		for _, b := range bs {
			b[i] = (b[i] - Dot(data[o:o+i], b[:i])) / data[o+i]
		}
		i++
	}
}

// finishRow completes row i+r of a forwardSubst block for one right-hand
// side b: tail is L[i+r, i : i+r+1], pivot last, and lanes the row's four
// prefix lanes.
func finishRow(tail, lanes, b []float64, i, r int) {
	b[i+r] = (b[i+r] - finishDot(lanes, tail[:r], b[i:i+r])) / tail[r]
}

// rowStart returns the offset of row i in dense (stride > 0) or packed
// (stride 0) lower-triangular storage.
func rowStart(i, stride int) int {
	if stride == 0 {
		return i * (i + 1) / 2
	}
	return i * stride
}

// backwardSubstT is the one back-substitution recurrence, b[i] = (b[i] −
// Σ_{k>i} L[k,i]·b[k]) / L[i,i] for i descending, the sum one running
// difference in k ascending (column order), behind
// TriPacked.BackwardSubstT. L is packed, as for forwardSubst.
func backwardSubstT(data, b []float64) {
	n := len(b)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= data[rowStart(k, 0)+i] * b[k]
		}
		b[i] = s / data[rowStart(i, 0)+i]
	}
}

// ParallelCholInverse returns (L·Lᵀ)⁻¹ densely, both triangles. It computes
// W = L⁻¹ column by column (stored transposed for contiguous access) and
// assembles Σ⁻¹ = WᵀW from row-wise dot products, which is roughly 3×
// cheaper than per-column two-sided solves and fully cache-friendly. The
// independent column solves and the row-wise assembly are distributed over
// nworkers goroutines. Both phases run in 2×4 tiles: a pair of W columns
// against four rows of L, then a pair of W rows against four others, so each
// operand row is loaded once for up to eight Dots — through tile.dots on the
// scalar tier, and on the vector tiers as fused strips (invWStrip4, wtwStrip),
// one call per two column pairs or per row pair. The pairing and
// every summation order depend only on n — never on nworkers — so the result
// is bitwise identical for any worker count. The LCM gradient reads the
// packed form, CholInversePackedInto, which is the same body over packed
// rows; the leave-one-out diagnostics read only the diagonal
// (CholInverseDiag).
func ParallelCholInverse(l *Matrix, nworkers int) *Matrix {
	return ParallelCholInverseInto(l, nworkers, nil, nil)
}

// ParallelCholInverseInto is ParallelCholInverse writing into caller-provided
// scratch: wt (the W = L⁻¹ workspace) and inv (the result) must each be n×n,
// or nil to allocate fresh.
//
// Neither needs zeroing, and both may be buffers whose contents the caller
// is done with: the first phase reads L's lower triangle and the entries of
// wt it has written, the second reads only wt, and no entry of wt or inv is
// read before it is written. So inv may be l itself — the second phase never
// reads the factor it overwrites — and wt may be the matrix l was factored
// from; wt must be neither l nor inv. CholeskyJitterPackedInto has no
// such freedom: its factor must not be its input, because every jitter rung
// re-reads the input.
func ParallelCholInverseInto(l *Matrix, nworkers int, wt, inv *Matrix) *Matrix {
	n := l.Rows
	if wt == nil {
		wt = NewMatrix(n, n)
	} else if wt.Rows != n || wt.Cols != n {
		panic("la: ParallelCholInverseInto wt dimension mismatch")
	}
	if inv == nil {
		inv = NewMatrix(n, n)
	} else if inv.Rows != n || inv.Cols != n {
		panic("la: ParallelCholInverseInto inv dimension mismatch")
	}
	cholInverse(l.Data, n, wt.Data, inv.Data, n, n, nworkers)
	return inv
}

// CholInversePackedInto is ParallelCholInverseInto for a packed factor, into
// packed scratch: W goes to wt and Σ⁻¹'s upper triangle to inv, each n(n+1)/2
// long, upper-packed row by row — row i's entries j ≥ i from
// i·n − i(i−1)/2 on, the order in which the LCM enumerates its sample pairs
// (r ≤ s). Every entry has the bits ParallelCholInverse gives it, and the
// lower triangle, which the gradient never reads, is not written. The
// aliasing contract is ParallelCholInverseInto's: inv may be l's own
// storage and wt the storage l was factored from, which is how the LCM
// engine's two packed buffers hold Σ, L, W and Σ⁻¹ between them. It returns
// inv.
func CholInversePackedInto(l *TriPacked, nworkers int, wt, inv []float64) []float64 {
	n := l.n
	if len(wt) != len(l.data) || len(inv) != len(l.data) {
		panic("la: CholInversePackedInto scratch dimension mismatch")
	}
	cholInverse(l.data, 0, wt, inv, 0, n, nworkers)
	return inv
}

// cholInverse is the one two-phase inverse of the order-n factor whose rows
// l holds (laid out as for forwardSubst by lstride), behind the dense and
// packed entry points. W and Σ⁻¹ are stored by upper rows (upRow), both by
// ustride: dense when it is n, packed when it is 0. A dense inv gets both
// triangles, a packed one only the upper.
func cholInverse(l []float64, lstride int, wt, inv []float64, ustride, n, nworkers int) {
	cholInverseW(l, lstride, wt, ustride, n, nworkers)
	parallelBlocks((n+1)/2, nworkers, func(g int) {
		i0 := 2 * g
		i1 := i0 + 1
		wi0 := upRow(wt, ustride, n, i0)
		if i1 >= n {
			// Odd tail row: plain per-entry dot products.
			for j := 0; j <= i0; j++ {
				s := Dot(wi0[i0:], upRow(wt, ustride, n, j)[i0:]) // entries below max(i,j)=i0 vanish
				inv[upStart(j, ustride, n)+i0] = s
				if ustride > 0 {
					inv[i0*ustride+j] = s
				}
			}
			return
		}
		wi1 := upRow(wt, ustride, n, i1)
		if vectorKernels {
			wtwRows(wt, inv, wi0, wi1, ustride, n, i0)
			return
		}
		// Phase 2, rows i0 and i1 against rows j ≤ i1 of W four at a time:
		// every Dot spans [i1, n), so one tile computes eight whole Dots; row
		// i0's entries then add the W[i0] term, and j = i1 is the diagonal
		// Dot(W[i1, i1:], W[i1, i1:]). Entries (j, i0) and (j, i1) are upper
		// ones; a dense inv mirrors them.
		var t tile
		var wj [4][]float64
		for jb := 0; jb <= i1; jb += 4 {
			nj := min(4, i1+1-jb)
			for c := range wj {
				wj[c] = upRow(wt, ustride, n, jb+min(c, nj-1)) // fewer than four rows repeat the last
			}
			t.dots(wi0, wi1, &wj, i1, n)
			for c := 0; c < nj; c++ {
				j := jb + c
				uj := upStart(j, ustride, n)
				s1 := t.dot(1, c)
				inv[uj+i1] = s1
				if j == i1 {
					continue
				}
				s0 := t.dot(0, c) + wi0[i0]*wj[c][i0]
				inv[uj+i0] = s0
				if ustride > 0 {
					inv[i0*ustride+j] = s0
					inv[i1*ustride+j] = s1
				}
			}
		}
	})
}

// wtwRows is the second phase's W rows i0 and i1 = i0+1 (wi0, wi1) on the
// vector tiers, the loop above in one wtwStrip call: the quads of rows
// j ≤ i0 are finished and stored in the kernel, and the last quad, which
// ends at the diagonal j = i1, leaves its eight Dots for the stores here.
func wtwRows(wt, inv, wi0, wi1 []float64, ustride, n, i0 int) {
	i1 := i0 + 1
	var out [8]float64
	m0, mstride := &inv[0], 0
	if ustride > 0 {
		m0, mstride = &inv[i0*ustride], ustride
	}
	_ = inv[upStart(i1, ustride, n)+i1] // past every entry the kernel writes: it writes unchecked
	step, grow := upperStep(ustride, n)
	wtwStrip(&wi0[i1], &wi1[i1], &wt[i1], &inv[i1], m0, &out[0], i1>>2, i1&3+1, n-i1, step, grow, mstride, wi0[i0])
	for jb, c := i1&^3, 0; jb+c <= i1; c++ {
		j := jb + c
		uj := upStart(j, ustride, n)
		inv[uj+i1] = out[4+c]
		if j < i1 {
			inv[uj+i0] = out[c]
			if ustride > 0 {
				inv[i0*ustride+j] = out[c]
				inv[i1*ustride+j] = out[4+c]
			}
		}
	}
}

// lowerStep returns the strip kernels' step and grow for lower rows laid
// out by stride, from row i on: the distance in elements from row i to row
// i+1, and what that distance gains per row.
func lowerStep(i, stride int) (step, grow int) {
	if stride == 0 {
		return i + 1, 1
	}
	return stride, 0
}

// upperStep is lowerStep for the upper rows of an order-n matrix (upStart),
// from row 0 on.
func upperStep(stride, n int) (step, grow int) {
	if stride == 0 {
		return n - 1, -1
	}
	return stride, 0
}

// CholInverseDiag returns the diagonal of (L·Lᵀ)⁻¹ for the packed factor t,
// every entry the bits ParallelCholInverse gives it: the inverse's first
// phase over t's rows into packed W, then, of the second, only the diagonal
// Dots — with w_i = W's column i (upper row i of wt), Dot(w_i[i:], w_i[i:])
// for odd i and the odd tail row, Dot(w_i[i+1:], w_i[i+1:]) + w_i[i]² for the
// other even i, each the tile's lanes combined as Dot combines them. That is
// n(n+1)/2 doubles and about n³/6 flops, where the dense inverse of a packed
// factor takes 3n² and n³/3. The leave-one-out diagnostics read nothing
// else.
func CholInverseDiag(t *TriPacked, nworkers int) []float64 {
	n := t.n
	wt := make([]float64, len(t.data))
	cholInverseW(t.data, 0, wt, 0, n, nworkers)
	d := make([]float64, n)
	for i := range d {
		w := upRow(wt, 0, n, i)
		if i&1 == 1 || i == n-1 {
			d[i] = Dot(w[i:], w[i:])
		} else {
			d[i] = Dot(w[i+1:], w[i+1:]) + w[i]*w[i]
		}
	}
	return d
}

// cholInverseW is the inverse's first phase, behind cholInverse and
// CholInverseDiag: it fills upper row j of wt, from column j on, with column
// j of W = L⁻¹, the solution of L·w = e_j (zero above j, an entry wt never
// holds). L's rows are read as forwardSubst reads them — row i at
// l[i·lstride], or packed when lstride is 0 — and only up to their
// diagonals; wt's upper rows are laid out by wstride (upRow). Columns of W
// are mutually independent.
//
// Columns j0 = 2g and j1 = j0+1 of W: for k > j1,
//
//	W[k][j0] = -(Dot(L[k, j1:k], W[j1:k, j0]) + L[k,j0]·W[j0][j0]) / L[k,k]
//	W[k][j1] = -Dot(L[k, j1:k], W[j1:k, j1]) / L[k,k]
//
// Rows k of L advance in blocks of four at k − j1 ≡ 0 (mod 4), which share
// the aligned prefix [j1, kb) of all eight Dots; each row's tail multiplies
// W entries the block has just produced. Row j1 opens the first block and
// keeps its own closed form. On the vector tiers pairs g and g+2, whose
// blocks coincide from the second pair's row j1 on, share one invWStrip4
// call: every entry keeps its operations, and each division chain carries
// four columns instead of two. The pairs from j0 = n − 5 on, whose rows
// below j1 are a single block, run the tiles.
func cholInverseW(l []float64, lstride int, wt []float64, wstride, n, nworkers int) {
	pairs := (n + 1) / 2
	if !vectorKernels {
		parallelBlocks(pairs, nworkers, func(g int) {
			invWTiles(l, lstride, wt, wstride, n, 2*g)
		})
		return
	}
	// Unit u is pairs g = 4⌊u/2⌋ + u mod 2 and g+2.
	parallelBlocks((pairs+3)/4*2, nworkers, func(u int) {
		j0 := 4*(u&^1) + 2*(u&1)
		if j0+5 >= n {
			// Pair j0's rows below j1 are one block, which pair j0+4 does
			// not reach.
			for j := j0; j < n; j += 4 {
				invWTiles(l, lstride, wt, wstride, n, j)
			}
			return
		}
		row0, row1 := invWHead(l, lstride, wt, wstride, n, j0)
		b0, b1 := invWHead(l, lstride, wt, wstride, n, j0+4)
		j1 := j0 + 1
		_ = triRow(l, lstride, n-1)[n-1] // the last row's pivot: the kernel reads unchecked
		step, grow := lowerStep(j1, lstride)
		var spill [32]float64
		invWStrip4(&row0[j1], &row1[j1], &b0[j1], &b1[j1], &l[rowStart(j1, lstride)+j1], n-j1, step, grow, row0[j0], b0[j0+4], &spill)
	})
}

// invWHead sets the closed forms that open columns j0 and j1 = j0+1 of W —
// W[j0][j0], and below n W[j1][j0] and W[j1][j1] — and returns their upper
// rows of wt, the second nil when j1 = n.
func invWHead(l []float64, lstride int, wt []float64, wstride, n, j0 int) (row0, row1 []float64) {
	j1 := j0 + 1
	row0 = upRow(wt, wstride, n, j0)
	row0[j0] = 1 / triRow(l, lstride, j0)[j0]
	if j1 >= n {
		return row0, nil
	}
	lj1 := triRow(l, lstride, j1)
	row0[j1] = -lj1[j0] * row0[j0] / lj1[j1]
	row1 = upRow(wt, wstride, n, j1)
	row1[j1] = 1 / lj1[j1]
	return row0, row1
}

// invWTiles is columns j0 and j0+1 of W on the scalar tier: the closed
// forms, then the blocks of L rows in 2×4 tiles, full ones finished by
// invTile.
func invWTiles(l []float64, lstride int, wt []float64, wstride, n, j0 int) {
	row0, row1 := invWHead(l, lstride, wt, wstride, n, j0)
	j1 := j0 + 1
	if j1 >= n {
		return
	}
	var t tile
	var lk [4][]float64
	for kb := j1; kb < n; kb += 4 {
		nk := min(4, n-kb)
		for c := range lk {
			lk[c] = triRow(l, lstride, kb+min(c, nk-1)) // fewer than four rows repeat the last
		}
		t.dots(row0, row1, &lk, j1, kb)
		if nk == 4 && kb > j1 {
			invTile(row0[kb:kb+4:kb+4], row1[kb:kb+4:kb+4], &lk, &t, kb, j0, row0[j0])
			continue
		}
		for c := 0; c < nk; c++ {
			k := kb + c
			if k == j1 {
				continue
			}
			s0 := finishDot(t.lanes(0, c), lk[c][kb:k], row0[kb:k]) + lk[c][j0]*row0[j0]
			s1 := finishDot(t.lanes(1, c), lk[c][kb:k], row1[kb:k])
			row0[k] = -s0 / lk[c][k]
			row1[k] = -s1 / lk[c][k]
		}
	}
}

// triRow returns row i of a lower-triangular factor up to its diagonal,
// laid out as for forwardSubst.
func triRow(data []float64, stride, i int) []float64 {
	o := rowStart(i, stride)
	return data[o : o+i+1 : o+i+1]
}

// upStart returns where upper row i of an order-n matrix would hold column
// 0: i·stride for dense rows, and for upper-packed ones (stride 0, row i's
// n − i entries from i·n − i(i−1)/2 on) that offset less i. Entry (i, j ≥ i)
// is at upStart(i, stride, n) + j either way.
func upStart(i, stride, n int) int {
	if stride == 0 {
		return i*n - i*(i+1)/2
	}
	return i * stride
}

// upRow returns upper row i of an order-n matrix stored by upper rows,
// indexed by column: only entries [i, n) are the row's own.
func upRow(data []float64, stride, n, i int) []float64 {
	o := upStart(i, stride, n)
	return data[o : o+n : o+n]
}

// logDetFromChol is the one log-determinant sum, i ascending, over the
// diagonal of the order-n packed factor data: behind TriPacked.LogDet.
func logDetFromChol(data []float64, n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Log(data[rowStart(i, 0)+i])
	}
	return 2 * s
}

// ParallelCholesky computes the lower-triangular Cholesky factor L of the
// symmetric positive definite matrix a (only the lower triangle of a is
// read) such that a = L·Lᵀ, in a new matrix whose strict upper triangle is
// zero, using a blocked right-looking algorithm whose panel solves and trailing updates are
// distributed over nworkers goroutines. It is the Go substitute for the
// ScaLAPACK-parallelized covariance factorization in the paper's Section 4.3
// and drives the Fig. 3 modeling-phase speedup experiment.
//
// The factor is bitwise identical for every nworkers value: the blocked
// schedule (and hence every floating-point summation order) depends only on
// n and blockSize, and workers only decide which goroutine runs each
// independent block. The LCM fit relies on this to produce the same model
// regardless of FitOptions.Workers.
//
// blockSize ≤ 0 selects a default, and blockSize ≥ n is one block: the plain
// row-by-row recurrence. nworkers ≤ 1 runs the blocks inline.
func ParallelCholesky(a *Matrix, blockSize, nworkers int) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("la: ParallelCholesky of non-square matrix")
	}
	l := NewMatrix(a.Rows, a.Rows)
	if err := choleskyInto(l.Data, a.Rows, a.Data, a.Rows, a.Rows, 0, blockSize, nworkers); err != nil {
		return nil, err
	}
	return l, nil
}

// choleskyInto is the blocked factorization itself: it copies the lower
// triangle of the order-n matrix whose rows a holds into l's, adds jitter to
// the diagonal, and factors l in place. Rows are laid out as for
// forwardSubst — dense at stride n, packed at stride 0 — each operand by its
// own stride, and nothing above a diagonal is read or written. The two block
// closures are built once and read the current block column through
// captured variables, which the loop only advances between parallel
// regions, so a factorization costs the same few small allocations whatever
// n is.
func choleskyInto(l []float64, lstride int, a []float64, astride, n int, jitter float64, blockSize, nworkers int) error {
	if blockSize <= 0 {
		blockSize = 64
	}
	if lstride == 0 && astride == 0 {
		copy(l, a[:n*(n+1)/2]) // packed rows are one contiguous triangle
	} else {
		for i := 0; i < n; i++ {
			copy(triRow(l, lstride, i), triRow(a, astride, i))
		}
	}
	if jitter > 0 {
		for i := 0; i < n; i++ {
			l[rowStart(i, lstride)+i] += jitter
		}
	}
	if nworkers <= 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}
	nb := (n + blockSize - 1) / blockSize
	bounds := func(b int) (lo, hi int) {
		lo = b * blockSize
		hi = lo + blockSize
		if hi > n {
			hi = n
		}
		return
	}
	var kb, k0, k1 int
	// Panel: solve L[i,k]·L[k,k]ᵀ = A[i,k] for the i-th row block below kb.
	panel := func(i int) {
		i0, i1 := bounds(kb + 1 + i)
		_ = cholRows(l, lstride, i0, i1, k0, k1) // panel rows hold no pivot
	}
	// Trailing update: A[i,j] -= L[i,k]·L[j,k]ᵀ for kb < j ≤ i, block pair p
	// of the lower triangle in row-major order.
	trailing := func(p int) {
		ib := 0
		for p > ib {
			p -= ib + 1
			ib++
		}
		i0, i1 := bounds(kb + 1 + ib)
		j0, j1 := bounds(kb + 1 + p)
		gemmUpdate(l, lstride, i0, i1, j0, j1, k0, k1)
	}
	for kb = 0; kb < nb; kb++ {
		k0, k1 = bounds(kb)
		// Factor the diagonal block in place (serial; it is small), then the
		// panel below it and the trailing blocks, each in parallel.
		if err := cholRows(l, lstride, k0, k1, k0, k1); err != nil {
			return err
		}
		below := nb - kb - 1
		parallelBlocks(below, nworkers, panel)
		parallelBlocks(below*(below+1)/2, nworkers, trailing)
	}
	return nil
}

// cholRows runs the Cholesky recurrence on rows [i0, i1) of the factor
// whose rows l holds (laid out by stride as for forwardSubst) against the
// column block [k0, k1), whose rows are factored before the rows that read
// them:
//
//	l[i,j] = (l[i,j] − Dot(l[i,k0:j], l[j,k0:j])) / l[j,j]   for k0 ≤ j < min(i, k1)
//	l[i,i] = √(l[i,i] − Dot(l[i,k0:i], l[i,k0:i]))            when k0 ≤ i < k1
//
// Rows [k0, k1) are the diagonal block, factored in place with the one pivot
// rule (s ≤ 0 or NaN is ErrNotPositiveDefinite); rows past k1 are a panel,
// X·Lkkᵀ = B, which holds no pivot and cannot fail.
//
// Rows go in pairs and columns in tiles of four starting at j − k0 ≡ 0
// (mod 4). The eight Dots of a tile share the aligned prefix [k0, j) — one
// tile.dots pass — and entry (i, j+c) adds its c tail terms, entries of row
// i the tile has just produced, into lane 0 in order. That is Dot's lane
// contract term for term, so the tiles and the entry-by-entry recurrence
// agree bit for bit and meet the pivots in the same order. On the vector
// tiers the full off-diagonal tiles of two row pairs with the same tiles
// are one cholStrip4 call, which in a diagonal block also finishes their
// diagonal tile, and those of a lone row pair one cholStrip call; the
// tiles left finish here.
func cholRows(l []float64, stride, i0, i1, k0, k1 int) error {
	var t tile
	var lj [4][]float64
	var spill [32]float64
	resume := -1 // where this row pair's tiles resume when a four-row strip ran ahead
	for ia := i0; ia < i1; ia += 2 {
		ib := min(ia+1, i1-1) // an odd last row pairs with itself and is written once
		ra, rb := triRow(l, stride, ia), triRow(l, stride, ib)
		ea, eb := min(ia+1, k1), min(ib+1, k1)
		j := k0
		tiles := (min(ia, k1) - k0) / 4
		diag := ia < k1 // the tile at ia reaches the rows' diagonals
		switch {
		case resume >= 0:
			j, resume = resume, -1
		case vectorKernels && ia+3 < i1 && (diag && ia == k0+4*tiles || !diag && tiles > 0):
			// Two row pairs at once, the next one having the same full
			// tiles: they read only rows above ia. In a diagonal block the
			// strip also finishes the four rows' diagonal tile.
			rc, rd := triRow(l, stride, ia+2), triRow(l, stride, ia+3)
			if tiles > 0 {
				last := k0 + 4*tiles - 1
				_ = triRow(l, stride, last)[last] // the kernel reads unchecked
			}
			step, grow := lowerStep(k0, stride)
			d := 0
			if diag {
				d = 1
			}
			if cholStrip4(&ra[k0], &rb[k0], &rc[k0], &rd[k0], &l[rowStart(k0, stride)+k0], tiles, step, grow, d, &spill) != 0 {
				return ErrNotPositiveDefinite
			}
			j = k0 + 4*tiles
			resume = j
			if diag {
				j, resume = eb, eb+2 // both pairs' rows are finished
			}
		case vectorKernels && ib != ia && tiles > 0:
			// The full off-diagonal tiles in one call, cholTile's chain each.
			last := k0 + 4*tiles - 1
			_ = triRow(l, stride, last)[last] // the kernel reads unchecked
			step, grow := lowerStep(k0, stride)
			cholStrip(&ra[k0], &rb[k0], &l[rowStart(k0, stride)+k0], tiles, step, grow)
			j += 4 * tiles
		}
		for ; j < eb; j += 4 {
			nj := min(4, eb-j)
			for c := range lj {
				lj[c] = triRow(l, stride, j+min(c, nj-1)) // fewer than four columns repeat the last
			}
			t.dots(ra, rb, &lj, k0, j)
			if nj == 4 && j+3 < ia && ib != ia {
				cholTile(ra[j:j+4:j+4], rb[j:j+4:j+4], &lj, &t, j)
				continue
			}
			// A tile that reaches a diagonal, ends the block or has one row
			// finishes entry by entry.
			for c := 0; c < nj; c++ {
				col, lc := j+c, lj[c]
				if col < ea {
					sa := ra[col] - finishDot(t.lanes(0, c), ra[j:col], lc[j:col])
					if col < ia {
						ra[col] = sa / lc[col]
					} else if sa <= 0 || math.IsNaN(sa) {
						return ErrNotPositiveDefinite
					} else {
						ra[col] = math.Sqrt(sa)
					}
				}
				if ib != ia {
					sb := rb[col] - finishDot(t.lanes(1, c), rb[j:col], lc[j:col])
					if col < ib {
						rb[col] = sb / lc[col]
					} else if sb <= 0 || math.IsNaN(sb) {
						return ErrNotPositiveDefinite
					} else {
						rb[col] = math.Sqrt(sb)
					}
				}
			}
		}
	}
	return nil
}

// cholTile finishes a full tile of cholRows: entries j … j+3 of two rows,
// x and y (their slices from j), every column left of both diagonals. Entry
// c of x is (x[c] − Dot) / l[j+c][j+c], its Dot's lane 0 taking the c tail
// terms x[t]·l[j+c][j+t] in order, then the combine — finishDot written out,
// so that the tile's own results stay in registers and neither row's chain
// of divisions waits on a store.
func cholTile(x, y []float64, lj *[4][]float64, s *tile, j int) {
	c0, c1, c2, c3 := lj[0][j:j+1:j+1], lj[1][j:j+2:j+2], lj[2][j:j+3:j+3], lj[3][j:j+4:j+4]
	x0 := (x[0] - combine(s[0], s[1], s[2], s[3])) / c0[0]
	y0 := (y[0] - combine(s[16], s[17], s[18], s[19])) / c0[0]
	x1 := (x[1] - combine(s[4]+x0*c1[0], s[5], s[6], s[7])) / c1[1]
	y1 := (y[1] - combine(s[20]+y0*c1[0], s[21], s[22], s[23])) / c1[1]
	x2 := (x[2] - combine(s[8]+x0*c2[0]+x1*c2[1], s[9], s[10], s[11])) / c2[2]
	y2 := (y[2] - combine(s[24]+y0*c2[0]+y1*c2[1], s[25], s[26], s[27])) / c2[2]
	x3 := (x[3] - combine(s[12]+x0*c3[0]+x1*c3[1]+x2*c3[2], s[13], s[14], s[15])) / c3[3]
	y3 := (y[3] - combine(s[28]+y0*c3[0]+y1*c3[1]+y2*c3[2], s[29], s[30], s[31])) / c3[3]
	x[0], x[1], x[2], x[3] = x0, x1, x2, x3
	y[0], y[1], y[2], y[3] = y0, y1, y2, y3
}

// invTile finishes a full block of the inverse's first phase: entries kb …
// kb+3 of W's columns j0 (w0) and j1 (w1), their slices from kb, against L's
// rows lk = L[kb … kb+3], where w00 = W[j0][j0]. Entry c of w0 is
// −(Dot + L[kb+c][j0]·w00) / L[kb+c][kb+c], of w1 −Dot / L[kb+c][kb+c], each
// Dot's lane 0 taking its c tail terms L[kb+c][kb+t]·w[t] in order, then the
// combine: the loop in ParallelCholInverseInto written out, with the block's
// own results in registers.
func invTile(w0, w1 []float64, lk *[4][]float64, s *tile, kb, j0 int, w00 float64) {
	l0, l1, l2, l3 := lk[0][kb:kb+1:kb+1], lk[1][kb:kb+2:kb+2], lk[2][kb:kb+3:kb+3], lk[3][kb:kb+4:kb+4]
	a0 := -(combine(s[0], s[1], s[2], s[3]) + lk[0][j0]*w00) / l0[0]
	b0 := -combine(s[16], s[17], s[18], s[19]) / l0[0]
	a1 := -(combine(s[4]+l1[0]*a0, s[5], s[6], s[7]) + lk[1][j0]*w00) / l1[1]
	b1 := -combine(s[20]+l1[0]*b0, s[21], s[22], s[23]) / l1[1]
	a2 := -(combine(s[8]+l2[0]*a0+l2[1]*a1, s[9], s[10], s[11]) + lk[2][j0]*w00) / l2[2]
	b2 := -combine(s[24]+l2[0]*b0+l2[1]*b1, s[25], s[26], s[27]) / l2[2]
	a3 := -(combine(s[12]+l3[0]*a0+l3[1]*a1+l3[2]*a2, s[13], s[14], s[15]) + lk[3][j0]*w00) / l3[3]
	b3 := -combine(s[28]+l3[0]*b0+l3[1]*b1+l3[2]*b2, s[29], s[30], s[31]) / l3[3]
	w0[0], w0[1], w0[2], w0[3] = a0, a1, a2, a3
	w1[0], w1[1], w1[2], w1[3] = b0, b1, b2, b3
}

// gemmUpdate performs L[i0:i1, j0:j1] -= L[i0:i1, k0:k1]·L[j0:j1, k0:k1]ᵀ
// on the rows l holds (laid out by stride as for forwardSubst), touching
// only the lower triangle when the (i,j) block is diagonal, each entry one
// Dot over [k0, k1). Rows go in pairs against four L[j] rows at a time, and
// one tile computes the eight whole Dots; on the vector tiers the quads both
// rows of a pair fill are one gemmStrip call.
func gemmUpdate(l []float64, stride, i0, i1, j0, j1, k0, k1 int) {
	rowMax := func(i int) int {
		if j0 <= i && i < j1 {
			return i + 1 // diagonal block: lower triangle only
		}
		return j1
	}
	var t tile
	var lj [4][]float64
	for ia := i0; ia < i1; ia += 2 {
		ib := min(ia+1, i1-1) // an odd last row pairs with itself and is written once
		ra, rb := triRow(l, stride, ia), triRow(l, stride, ib)
		ea, eb := rowMax(ia), rowMax(ib) // eb ≥ ea always
		j := j0
		if quads := (ea - j0) / 4; vectorKernels && ib != ia && quads > 0 {
			// The quads both rows fill, in one call.
			last := j0 + 4*quads - 1
			_ = triRow(l, stride, last)[k1-1] // the kernel reads unchecked
			step, grow := lowerStep(j0, stride)
			gemmStrip(&ra[k0], &rb[k0], &ra[j0], &rb[j0], &l[rowStart(j0, stride)+k0], quads, k1-k0, step, grow)
			j += 4 * quads
		}
		for ; j < eb; j += 4 {
			nj := min(4, eb-j)
			for c := range lj {
				lj[c] = triRow(l, stride, j+min(c, nj-1)) // fewer than four columns repeat the last
			}
			t.dots(ra, rb, &lj, k0, k1)
			for c := 0; c < nj; c++ {
				if j+c < ea {
					ra[j+c] -= t.dot(0, c)
				}
				if ib != ia {
					rb[j+c] -= t.dot(1, c)
				}
			}
		}
	}
}

// parallelBlocks runs fn(i) for i in [0, count) on the mpx worker pool and
// waits for all iterations (results are identical for any worker count by
// construction). The work is pure CPU, so nworkers is capped at GOMAXPROCS
// — extra goroutines would only add scheduling overhead.
func parallelBlocks(count, nworkers int, fn func(int)) {
	if p := runtime.GOMAXPROCS(0); nworkers > p {
		nworkers = p
	}
	mpx.ParallelFor(count, nworkers, fn)
}
