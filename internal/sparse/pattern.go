// Package sparse provides the symbolic sparse-matrix machinery behind the
// SuperLU_DIST simulator: symmetric sparsity patterns, fill-reducing
// orderings (natural, reverse Cuthill–McKee, minimum degree — the COLPERM
// choices of Section 6.2), elimination trees, exact fill/flop counts via
// symbolic factorization, and supernode partitioning controlled by the
// NSUP/NREL tuning parameters.
//
// Everything here operates on patterns only (no numerical values): the
// tuning-relevant effects of COLPERM/NSUP/NREL flow entirely through fill
// and supernode granularity, which are computed exactly rather than faked.
package sparse

import (
	"slices"

	"repro/internal/rng"
)

// Pattern is the symmetric adjacency structure of a sparse matrix (diagonal
// implicit, no self-loops, edges stored once per endpoint).
type Pattern struct {
	N   int
	Adj [][]int32 // sorted neighbor lists
}

// builder accumulates edges then produces a Pattern.
type builder struct {
	adj [][]int32 // both directions of every edge, duplicates included
}

func newBuilder(n int) *builder {
	return &builder{adj: make([][]int32, n)}
}

func (b *builder) addEdge(u, v int) {
	n := len(b.adj)
	if u == v || u < 0 || v < 0 || u >= n || v >= n {
		return
	}
	b.adj[u] = append(b.adj[u], int32(v))
	b.adj[v] = append(b.adj[v], int32(u))
}

func (b *builder) build() *Pattern {
	for u, a := range b.adj {
		slices.Sort(a)
		b.adj[u] = slices.Compact(a)
	}
	return &Pattern{N: len(b.adj), Adj: b.adj}
}

// Grid3D returns the pattern of a radius-r finite-difference stencil on an
// nx×ny×nz grid (r=1 gives the 27-point stencil; the 7-point stencil is the
// subset with Manhattan radius 1, selectable via manhattan).
func Grid3D(nx, ny, nz, r int, manhattan bool) *Pattern {
	n := nx * ny * nz
	b := newBuilder(n)
	id := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				u := id(x, y, z)
				for dz := -r; dz <= r; dz++ {
					for dy := -r; dy <= r; dy++ {
						for dx := -r; dx <= r; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							if manhattan && abs(dx)+abs(dy)+abs(dz) > r {
								continue
							}
							X, Y, Z := x+dx, y+dy, z+dz
							if X < 0 || Y < 0 || Z < 0 || X >= nx || Y >= ny || Z >= nz {
								continue
							}
							v := id(X, Y, Z)
							if v > u {
								b.addEdge(u, v)
							}
						}
					}
				}
			}
		}
	}
	return b.build()
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Hamiltonian synthesizes a PARSEC-like density-functional Hamiltonian
// pattern: n orbitals placed on a 3D lattice inside a cube, coupled to all
// lattice neighbors within a radius chosen to reach approximately avgDeg
// off-diagonals per row, plus a small fraction of longer-range couplings.
// Deterministic in seed. This stands in for the SuiteSparse PARSEC matrices
// (Si2, SiH4, ...) whose published dimensions and densities it mimics.
func Hamiltonian(n, avgDeg int, seed int64) *Pattern {
	rng := rng.New(seed, rng.Sparse)
	side := 1
	for side*side*side < n {
		side++
	}
	b := newBuilder(n)
	// Choose the coupling radius to reach roughly avgDeg neighbors: a ball
	// of Chebyshev radius r holds (2r+1)³-1 lattice points.
	r := 1
	for (2*r+1)*(2*r+1)*(2*r+1)-1 < avgDeg {
		r++
	}
	for u := 0; u < n; u++ {
		// Orbital u sits at the u-th lattice point of the cube in scan
		// order, so a lattice point maps back to its orbital arithmetically.
		x, y, z := u%side, u/side%side, u/(side*side)
		count := 0
		for dz := -r; dz <= r && count < avgDeg; dz++ {
			for dy := -r; dy <= r && count < avgDeg; dy++ {
				for dx := -r; dx <= r && count < avgDeg; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					X, Y, Z := x+dx, y+dy, z+dz
					if X < 0 || Y < 0 || Z < 0 || X >= side || Y >= side || Z >= side {
						continue
					}
					if v := (Z*side+Y)*side + X; v < n && v > u {
						b.addEdge(u, v)
						count++
					}
				}
			}
		}
		// ~2% long-range couplings (delocalized orbitals).
		for e := 0; e < avgDeg/50+1; e++ {
			b.addEdge(u, rng.Intn(n))
		}
	}
	return b.build()
}

// Permute returns the pattern relabeled so that perm[k] (an old vertex id)
// becomes vertex k.
func (p *Pattern) Permute(perm []int32) *Pattern {
	inv := make([]int32, p.N)
	for newID, old := range perm {
		inv[old] = int32(newID)
	}
	out := &Pattern{N: p.N, Adj: make([][]int32, p.N)}
	for old, a := range p.Adj {
		u := inv[old]
		na := make([]int32, len(a))
		for i, v := range a {
			na[i] = inv[v]
		}
		slices.Sort(na)
		out.Adj[u] = na
	}
	return out
}
