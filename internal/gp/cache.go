package gp

import "repro/internal/la"

// pairCache is what every likelihood evaluation of a fit reads of the
// sample coordinates, built once per FitLCM call and shared read-only by
// every engine: the dimension-major coordinates xT (xT[d·n+r] = x_r[d], the
// layout of the fitted model's own xT) and the packed pair indexing the
// engine's kernels, its Σ⁻¹ and its sweeps share.
//
// Pairs (r, s ≥ r) are enumerated row by row over the upper triangle: pair
// p = pairStart(r) + (s-r), so row r owns pairs [pairStart(r),
// pairStart(r)+n-r), its diagonal pair first. An engine pass that needs a
// row's squared differences fills them from xT for that row alone (sqRow),
// dim·(n−r) doubles in a per-chunk scratch, where a tensor of every pair's
// (dim·n(n+1)/2 doubles, the fit's largest allocation at tune_warm's shape)
// used to be held for the whole fit.
type pairCache struct {
	n, dim int
	npairs int
	xT     []float64 // [dim*n], dimension-major
}

// pairStart returns the packed index of pair (r, r).
func (c *pairCache) pairStart(r int) int {
	return r*c.n - r*(r-1)/2
}

// newPairCache lays out flatX's coordinates for the engine.
func newPairCache(flatX [][]float64, dim int) *pairCache {
	n := len(flatX)
	return &pairCache{n: n, dim: dim, npairs: n * (n + 1) / 2, xT: dimMajor(flatX, dim)}
}

// dimMajor returns the dimension-major copy of rows: out[d·n+r] = rows[r][d].
func dimMajor(rows [][]float64, dim int) []float64 {
	n := len(rows)
	out := make([]float64, dim*n)
	for r, x := range rows {
		for d, xd := range x {
			out[d*n+r] = xd
		}
	}
	return out
}

// sqRow fills buf's first dim·(n−r) doubles with row r's squared
// differences, (x_r[d] − x_s[d])² for s = r … n−1, one row of n−r per
// dimension — the diagonal pair's zero first — and returns them: the values,
// operation for operation, of the per-pair tensor it replaced.
func (c *pairCache) sqRow(buf []float64, r int) []float64 {
	cnt := c.n - r
	sq := buf[:c.dim*cnt]
	la.SqDiffsInto(sq, c.xT[r:], c.n, cnt)
	return sq
}
