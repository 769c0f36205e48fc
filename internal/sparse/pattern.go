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
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Pattern is the symmetric adjacency structure of a sparse matrix (diagonal
// implicit, no self-loops, edges stored once per endpoint).
type Pattern struct {
	N   int
	Adj [][]int32 // sorted neighbor lists
}

// NNZ returns the nonzero count of the represented matrix (off-diagonals
// plus the diagonal).
func (p *Pattern) NNZ() int {
	n := p.N
	for _, a := range p.Adj {
		n += len(a)
	}
	return n
}

// Validate checks structural invariants: sorted lists, symmetric edges, no
// self loops, indices in range.
func (p *Pattern) Validate() error {
	if len(p.Adj) != p.N {
		return fmt.Errorf("sparse: %d adjacency lists for N=%d", len(p.Adj), p.N)
	}
	for u, a := range p.Adj {
		for i, v := range a {
			if int(v) < 0 || int(v) >= p.N {
				return fmt.Errorf("sparse: vertex %d has out-of-range neighbor %d", u, v)
			}
			if int(v) == u {
				return fmt.Errorf("sparse: self-loop at %d", u)
			}
			if i > 0 && a[i-1] >= v {
				return fmt.Errorf("sparse: adjacency of %d not strictly sorted", u)
			}
			if !contains(p.Adj[v], int32(u)) {
				return fmt.Errorf("sparse: edge (%d,%d) not symmetric", u, v)
			}
		}
	}
	return nil
}

func contains(sorted []int32, x int32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	return i < len(sorted) && sorted[i] == x
}

// builder accumulates edges then produces a Pattern.
type builder struct {
	n    int
	sets []map[int32]struct{}
}

func newBuilder(n int) *builder {
	return &builder{n: n, sets: make([]map[int32]struct{}, n)}
}

func (b *builder) addEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return
	}
	if b.sets[u] == nil {
		b.sets[u] = make(map[int32]struct{})
	}
	if b.sets[v] == nil {
		b.sets[v] = make(map[int32]struct{})
	}
	b.sets[u][int32(v)] = struct{}{}
	b.sets[v][int32(u)] = struct{}{}
}

func (b *builder) build() *Pattern {
	p := &Pattern{N: b.n, Adj: make([][]int32, b.n)}
	for u, s := range b.sets {
		a := make([]int32, 0, len(s))
		//gptlint:ignore no-map-range key collection only; keys are sorted on the next line
		for v := range s {
			a = append(a, v)
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		p.Adj[u] = a
	}
	return p
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
	pos := make([][3]int, n)
	// Fill the cube in scan order; positions are dense so neighbor lookup
	// is direct.
	idOf := make(map[[3]int]int, n)
	k := 0
	for z := 0; z < side && k < n; z++ {
		for y := 0; y < side && k < n; y++ {
			for x := 0; x < side && k < n; x++ {
				pos[k] = [3]int{x, y, z}
				idOf[pos[k]] = k
				k++
			}
		}
	}
	// Choose the coupling radius to reach roughly avgDeg neighbors: a ball
	// of Chebyshev radius r holds (2r+1)³-1 lattice points.
	r := 1
	for (2*r+1)*(2*r+1)*(2*r+1)-1 < avgDeg {
		r++
	}
	for u := 0; u < n; u++ {
		p := pos[u]
		count := 0
		for dz := -r; dz <= r && count < avgDeg; dz++ {
			for dy := -r; dy <= r && count < avgDeg; dy++ {
				for dx := -r; dx <= r && count < avgDeg; dx++ {
					if dx == 0 && dy == 0 && dz == 0 {
						continue
					}
					q := [3]int{p[0] + dx, p[1] + dy, p[2] + dz}
					if v, ok := idOf[q]; ok && v > u {
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
		sort.Slice(na, func(i, j int) bool { return na[i] < na[j] })
		out.Adj[u] = na
	}
	return out
}
