package la

import (
	"errors"
	"math"
)

// TriPacked is a lower-triangular matrix stored in packed row-major form:
// row i occupies data[i(i+1)/2 : i(i+1)/2+i+1]. It is the growable home of a
// Cholesky factor: appending a row costs one slice append plus the O(n²)
// substitution work, instead of the O(n²) reallocate-and-copy a dense Matrix
// would pay before any arithmetic. Packing also halves the memory of large
// factors, which is what lets the incremental exact surrogate hold histories
// an order of magnitude past the refit-from-scratch ceiling.
//
// Its factorization and inverse run the bodies the dense routines run
// (choleskyInto and cholInverse take either row layout): the same Dot calls
// over the same prefixes, in the same order, so a factor moved between
// representations yields bitwise-identical results. The solves and the
// log-determinant read packed rows alone.
type TriPacked struct {
	n    int
	data []float64 // len n(n+1)/2
}

// NewTriPacked returns the order-n packed triangle stored in data, which it
// shares and which must hold n(n+1)/2 elements; nil data allocates zeroed
// storage. A caller that factors into the same storage again and again (the
// LCM engine, CholeskyJitterPackedInto) keeps its buffer this way, and one
// that is done with the buffer can hand the factor on without a copy.
func NewTriPacked(n int, data []float64) *TriPacked {
	if data == nil {
		data = make([]float64, n*(n+1)/2)
	} else if len(data) != n*(n+1)/2 {
		panic("la: NewTriPacked storage is not n(n+1)/2 long")
	}
	return &TriPacked{n: n, data: data}
}

// PackChol packs the lower triangle of a dense matrix — a factor as produced
// by Cholesky or ParallelCholesky, or a symmetric matrix to be factored by
// CholeskyJitterPackedInto — into a TriPacked. The strict upper triangle of
// l is ignored.
func PackChol(l *Matrix) *TriPacked {
	if l.Rows != l.Cols {
		panic("la: PackChol of non-square matrix")
	}
	n := l.Rows
	t := NewTriPacked(n, nil)
	for i := 0; i < n; i++ {
		copy(t.Row(i), l.Row(i)[:i+1])
	}
	return t
}

// N returns the current order of the factor.
func (t *TriPacked) N() int { return t.n }

// Row returns a view of packed row i (length i+1, shared storage).
func (t *TriPacked) Row(i int) []float64 {
	off := i * (i + 1) / 2
	return t.data[off : off+i+1]
}

// Clone returns a deep copy.
func (t *TriPacked) Clone() *TriPacked {
	c := &TriPacked{n: t.n, data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// ForwardSubst solves L·y = b in place (b becomes y) for each of up to four
// right-hand sides: the forwardSubst body over packed rows, so each
// right-hand side's bits are those of its solve alone. Several of them share each pass over L.
func (t *TriPacked) ForwardSubst(bs ...[]float64) {
	if len(bs) > MaxRHS {
		panic("la: TriPacked.ForwardSubst of more than four right-hand sides")
	}
	for _, b := range bs {
		if len(b) != t.n {
			panic("la: TriPacked.ForwardSubst dimension mismatch")
		}
	}
	forwardSubst(t.data, bs...)
}

// BackwardSubstT solves Lᵀ·x = b in place (b becomes x): the
// backwardSubstT body over packed rows.
func (t *TriPacked) BackwardSubstT(b []float64) {
	if len(b) != t.n {
		panic("la: TriPacked.BackwardSubstT dimension mismatch")
	}
	backwardSubstT(t.data, b)
}

// SolveVec solves (L·Lᵀ)·x = b, returning x in a new slice: the
// solveCholVec body over packed rows.
func (t *TriPacked) SolveVec(b []float64) []float64 {
	if len(b) != t.n {
		panic("la: TriPacked.SolveVec dimension mismatch")
	}
	return solveCholVec(t.data, b)
}

// LogDet returns log det(L·Lᵀ) = 2·Σ log L_ii: the logDetFromChol sum over
// packed rows.
func (t *TriPacked) LogDet() float64 { return logDetFromChol(t.data, t.n) }

// AppendRows is the blocked, jitter-aware k-row extension: given the factor
// of A, it appends the factor rows of [[A, Bᵀ], [B, C]] where cols holds B
// (k×n, row j = covariances of new point j against the existing n) and
// corner holds C (k×k, lower triangle read). Each new row is [wᵀ, √(d − w·w)]
// with L·w = c solved by forward substitution: O(n²) per row against the
// O(n³) of refactoring. The panel solves against the existing factor are
// distributed over workers goroutines — rows are mutually independent
// there, so the result is bitwise identical for every worker count and to k
// successive one-row calls. A failed pivot retries with an escalating jitter
// added to that row's diagonal entry only (the already-factored leading
// block is untouched); initial ≤ 0 selects the default 1e-10, and like
// CholeskyJitterPacked the scale is relative to the diagonal magnitude. The
// maximum jitter added is returned (0 on the first-try path). On error t is
// left unchanged.
//
//gptlint:hotpath
func (t *TriPacked) AppendRows(cols, corner *Matrix, initial float64, workers int) (float64, error) {
	k := cols.Rows
	if corner.Rows != k || corner.Cols != k {
		return 0, errors.New("la: AppendRows corner shape mismatch")
	}
	n0 := t.n
	if cols.Cols != n0 {
		return 0, errors.New("la: AppendRows cols width mismatch")
	}
	if k == 0 {
		return 0, nil
	}
	if initial <= 0 {
		initial = 1e-10
	}
	oldLen := len(t.data)
	newLen := (n0 + k) * (n0 + k + 1) / 2
	for len(t.data) < newLen {
		t.data = append(t.data, 0) //gptlint:ignore hotpath-alloc growing the packed factor storage is the operation itself; amortized by append's doubling
	}
	t.data = t.data[:newLen]
	t.n = n0 + k
	// Panel: forward-substitute each new row against the existing factor.
	// Row j only reads rows < n0 and writes its own segment, so the rows are
	// independent and the parallel schedule cannot change any bit.
	parallelBlocks(k, workers, func(j int) { //gptlint:ignore hotpath-alloc one closure per panel append, not per row; the fan-out is the parallelism seam
		w := t.Row(n0 + j)
		copy(w[:n0], cols.Row(j))
		forwardSubst(t.data, w[:n0])
	})
	// Corner: finish each new row against the earlier new rows, then take its
	// pivot — the plain Cholesky recurrence continued past n0, in row order.
	maxJitter := 0.0
	for j := 0; j < k; j++ {
		w := t.Row(n0 + j)
		for j2 := 0; j2 < j; j2++ {
			w2 := t.Row(n0 + j2)
			i := n0 + j2
			w[i] = (corner.At(j, j2) - Dot(w[:i], w2[:i])) / w2[i]
		}
		d := corner.At(j, j)
		s := d - Dot(w[:n0+j], w[:n0+j])
		if s <= 0 || math.IsNaN(s) {
			ok := false
			if !math.IsNaN(s) {
				scale := math.Abs(d)
				if scale < 1 {
					scale = 1
				}
				jitter := initial * scale
				for attempt := 0; attempt < jitterAttempts; attempt++ {
					if s+jitter > 0 {
						s += jitter
						if jitter > maxJitter {
							maxJitter = jitter
						}
						ok = true
						break
					}
					jitter *= 10
				}
			}
			if !ok {
				t.data = t.data[:oldLen]
				t.n = n0
				return maxJitter, ErrNotPositiveDefinite
			}
		}
		w[n0+j] = math.Sqrt(s)
	}
	return maxJitter, nil
}
