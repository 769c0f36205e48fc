// Package la provides the dense linear algebra kernels used by the GP/LCM
// surrogate models: row-major matrices, matrix products, Cholesky
// factorization (serial and parallel blocked, the stand-in for the
// ScaLAPACK-parallelized covariance factorization of the paper's Section 4.3),
// and triangular solves.
//
// All routines are deterministic and allocate only when documented. Matrices
// are dense, row-major, and sized at construction.
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

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

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

// vectorKernels selects, once at start-up, the vector bodies (kernels_*.s)
// for the lane loops of Dot, dotPair and forwardSubst; false on CPUs and
// GOARCHes without one. Either way every result has the same bits, so only
// the tests ever flip it.
var vectorKernels = haveVectorKernels()

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
	return (s0 + s2) + (s1 + s3)
}

// dotPair returns (a·b0, a·b1) in a single pass over a, each product
// accumulated in its own four lanes exactly as Dot defines them. Fusing the
// two products loads the shared operand a once, which matters in the
// memory-bound triangular-inverse phases that dominate the LCM gradient.
func dotPair(a, b0, b1 []float64) (float64, float64) {
	if len(a) != len(b0) || len(a) != len(b1) {
		panic("la: dotPair length mismatch")
	}
	var s00, s01, s02, s03 float64
	var s10, s11, s12, s13 float64
	i := 0
	if vectorKernels && len(a) >= vectorMin {
		var s [8]float64
		i = len(a) &^ 3
		dotPairLanes(&a[0], &b0[0], &b1[0], i, &s)
		s00, s01, s02, s03 = s[0], s[1], s[2], s[3]
		s10, s11, s12, s13 = s[4], s[5], s[6], s[7]
	}
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		x := b0[i : i+4 : i+4]
		y := b1[i : i+4 : i+4]
		s00 += aa[0] * x[0]
		s10 += aa[0] * y[0]
		s01 += aa[1] * x[1]
		s11 += aa[1] * y[1]
		s02 += aa[2] * x[2]
		s12 += aa[2] * y[2]
		s03 += aa[3] * x[3]
		s13 += aa[3] * y[3]
	}
	for ; i < len(a); i++ {
		s00 += a[i] * b0[i]
		s10 += a[i] * b1[i]
	}
	return (s00 + s02) + (s01 + s03), (s10 + s12) + (s11 + s13)
}

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
