package gp

// pairCache holds the per-dimension pairwise squared differences of a fixed
// sample set, packed over the upper triangle (r ≤ s) in row-major order.
// It is computed once per FitLCM call and shared read-only by every L-BFGS
// evaluation of every restart, so the ~400 likelihood/gradient evaluations
// of a modeling phase never re-touch the raw coordinates: each kernel entry
// becomes a weighted sum over cached distances (the paper's Table 3 shows
// modeling time dominating as n·δ grows, which makes this the hot path).
//
// Layout: pair p = pairStart(r) + (s-r) for r ≤ s, and the tensor is
// dimension-major — sq[d*npairs+p] holds (x_r[d] - x_s[d])² — so the pairs of
// one row are contiguous within every dimension, which is what lets the
// engine's passes run la's lane kernels over them (four consecutive pairs
// per register in the assembly, a row of pairs against four latents in the
// gradient). Diagonal pairs are stored (as zeros) to keep row ranges
// contiguous: row r owns pairs [pairStart(r), pairStart(r)+n-r).
type pairCache struct {
	n, dim int
	npairs int
	sq     []float64 // len dim*npairs, dimension-major
}

// pairStart returns the packed index of pair (r, r).
func (c *pairCache) pairStart(r int) int {
	return r*c.n - r*(r-1)/2
}

// newPairCache precomputes the squared-difference tensor for flatX.
func newPairCache(flatX [][]float64, dim int) *pairCache {
	n := len(flatX)
	c := &pairCache{n: n, dim: dim, npairs: n * (n + 1) / 2}
	c.sq = make([]float64, dim*c.npairs)
	for r := 0; r < n; r++ {
		xr := flatX[r]
		p := c.pairStart(r)
		for d := 0; d < dim; d++ {
			row := c.sq[d*c.npairs+p : d*c.npairs+p+n-r]
			for j := range row {
				diff := xr[d] - flatX[r+j][d]
				row[j] = diff * diff
			}
		}
	}
	return c
}
