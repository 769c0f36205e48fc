// Package la provides the linear algebra kernels used by the GP/LCM
// surrogate models: row-major matrices, matrix products, the Cholesky
// factorization and inverse (blocked and parallel, the stand-in for the
// ScaLAPACK-parallelized covariance factorization of the paper's Section
// 4.3), and triangular solves.
//
// All routines are deterministic and allocate only when documented. Matrices
// are dense, row-major, and sized at construction; a Cholesky factor is
// packed (TriPacked), the one row layout the factorization and inverse
// bodies run, and the dense entry points pack and unpack at the edge.
package la

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("la: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MatMulTransB returns a·bᵀ as a new matrix.
func MatMulTransB(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("la: MatMulTransB dimension mismatch")
	}
	c := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ai := a.Row(i)
		ci := c.Row(i)
		for j := 0; j < b.Rows; j++ {
			ci[j] = Dot(ai, b.Row(j))
		}
	}
	return c
}

// vectorKernels selects the AVX2 bodies (kernels_amd64.s, lanes_amd64.s) of
// the lane loops of Dot, tile.dots, forwardSubst and lanes.go and the fused
// strips of the Cholesky factorization and the inverse, and
// wideKernels the AVX-512 ones that replace some of them; both follow
// cpuTier, so both are false on CPUs and GOARCHes without AVX2 and in a
// build with the purego tag. Whatever the tier every result has the same
// bits, so only the tests ever flip them (tier by tier).
var vectorKernels, wideKernels = cpuTier >= tierAVX2, cpuTier >= tierAVX512

// vectorMin is the shortest vector handed to a vector kernel; below it the
// call, which sets up and returns its lanes through memory, costs more than
// the scalar loop it replaces.
const vectorMin = 16

// Dot returns the inner product of two equal-length vectors, defined as four
// independent lanes: over the 4-aligned prefix element i accumulates into
// lane i mod 4 (s += a[i]*b[i], product rounded, then sum rounded — never
// fused), the ≤ 3 tail elements go into lane 0 in order, and the result is
// (l0+l2)+(l1+l3). Independent lanes break the floating-point add dependency
// chain (the Cholesky, inverse, and prediction hot loops are all dot-product
// bound) and are what a vector kernel holds in one register: dotLanes runs
// the prefix when there is one, the scalar loop otherwise, bit for bit.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("la: Dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	if vectorKernels && len(a) >= vectorMin {
		var s [4]float64
		i = len(a) &^ 3
		dotLanes(&a[0], &b[0], i, &s)
		s0, s1, s2, s3 = s[0], s[1], s[2], s[3]
	}
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return combine(s0, s1, s2, s3)
}

// tile holds the lanes of eight Dots, two rows against four columns: row r
// against column c at [16r+4c, 16r+4c+4). It runs the 2×4 tiles of the
// Cholesky factorization and the inverse on the scalar tier, and on the
// vector tiers the edge tiles that the fused strips leave (DESIGN.md §6.1,
// "Tiles").
type tile [32]float64

// dots sets t to the lanes of Dot(b[c][lo:hi], r[lo:hi]) for r = r0, r1 and
// c < 4: the aligned prefix through dotRows2x4Lanes under vectorKernels and
// the loop below otherwise, then the ≤ 3 tail products into lane 0 in order.
// So t.dot(r, c) has that Dot's bits, and when hi − lo is a multiple of four
// a caller may add further tail terms itself (finishDot). Operands may alias
// one another.
func (t *tile) dots(r0, r1 []float64, b *[4][]float64, lo, hi int) {
	x, y := r0[lo:hi], r1[lo:hi]
	c0, c1, c2, c3 := b[0][lo:hi], b[1][lo:hi], b[2][lo:hi], b[3][lo:hi]
	m := len(x) &^ 3
	switch {
	case m == 0:
		*t = tile{}
	case vectorKernels:
		dotRows2x4Lanes(&x[0], &y[0], &c0[0], &c1[0], &c2[0], &c3[0], m, (*[32]float64)(t))
	default:
		for r, row := range [2][]float64{x[:m], y[:m]} {
			for c, col := range [4][]float64{c0[:m], c1[:m], c2[:m], c3[:m]} {
				var l0, l1, l2, l3 float64
				for i := 0; i < m; i += 4 {
					u, v := row[i:i+4:i+4], col[i:i+4:i+4]
					l0 += v[0] * u[0]
					l1 += v[1] * u[1]
					l2 += v[2] * u[2]
					l3 += v[3] * u[3]
				}
				t[16*r+4*c], t[16*r+4*c+1], t[16*r+4*c+2], t[16*r+4*c+3] = l0, l1, l2, l3
			}
		}
	}
	for i := m; i < len(x); i++ {
		t[0] += c0[i] * x[i]
		t[4] += c1[i] * x[i]
		t[8] += c2[i] * x[i]
		t[12] += c3[i] * x[i]
		t[16] += c0[i] * y[i]
		t[20] += c1[i] * y[i]
		t[24] += c2[i] * y[i]
		t[28] += c3[i] * y[i]
	}
}

// lanes returns the four lanes of row r against column c.
func (t *tile) lanes(r, c int) []float64 { return t[16*r+4*c : 16*r+4*c+4 : 16*r+4*c+4] }

// dot returns Dot's combine of row r against column c.
func (t *tile) dot(r, c int) float64 {
	l := t.lanes(r, c)
	return combine(l[0], l[1], l[2], l[3])
}

// finishDot completes a Dot from its prefix lanes: the tail products a[t]·b[t]
// go into lane 0 in order, then the combine (l0+l2)+(l1+l3).
func finishDot(lanes, a, b []float64) float64 {
	s0 := lanes[0]
	for t, x := range a {
		s0 += x * b[t]
	}
	return combine(s0, lanes[1], lanes[2], lanes[3])
}

// combine is Dot's final sum of its four lanes.
func combine(l0, l1, l2, l3 float64) float64 { return (l0 + l2) + (l1 + l3) }

// ScaleVec multiplies x by s in place.
func ScaleVec(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	y := make([]float64, len(x))
	copy(y, x)
	return y
}
