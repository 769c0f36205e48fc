package sparse

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// nnz returns the nonzero count of the matrix p represents (off-diagonals
// plus the diagonal).
func nnz(p *Pattern) int {
	n := p.N
	for _, a := range p.Adj {
		n += len(a)
	}
	return n
}

// validate checks p's structural invariants: sorted lists, symmetric edges,
// no self loops, indices in range. The package builds every Pattern it
// hands out, so this is the tests' oracle of that construction.
func validate(p *Pattern) error {
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
	_, ok := slices.BinarySearch(sorted, x)
	return ok
}

func randomPattern(rng *rand.Rand, n, edges int) *Pattern {
	b := newBuilder(n)
	for e := 0; e < edges; e++ {
		b.addEdge(rng.Intn(n), rng.Intn(n))
	}
	// Connect a spanning chain so orderings see one component.
	for i := 0; i+1 < n; i++ {
		b.addEdge(i, i+1)
	}
	return b.build()
}

func TestGrid3DCounts(t *testing.T) {
	// 7-point stencil on a 3×3×3 grid: interior vertex has 6 neighbors.
	p := Grid3D(3, 3, 3, 1, true)
	if p.N != 27 {
		t.Fatalf("N = %d", p.N)
	}
	if err := validate(p); err != nil {
		t.Fatal(err)
	}
	center := (1*3+1)*3 + 1
	if len(p.Adj[center]) != 6 {
		t.Fatalf("center degree %d, want 6", len(p.Adj[center]))
	}
	corner := 0
	if len(p.Adj[corner]) != 3 {
		t.Fatalf("corner degree %d, want 3", len(p.Adj[corner]))
	}
	// 27-point stencil: center has 26 neighbors.
	p27 := Grid3D(3, 3, 3, 1, false)
	if len(p27.Adj[center]) != 26 {
		t.Fatalf("27-pt center degree %d", len(p27.Adj[center]))
	}
}

func TestHamiltonianShape(t *testing.T) {
	p := Hamiltonian(769, 22, 1)
	if p.N != 769 {
		t.Fatalf("N = %d", p.N)
	}
	if err := validate(p); err != nil {
		t.Fatal(err)
	}
	avg := float64(nnz(p)-p.N) / float64(p.N)
	if avg < 8 || avg > 44 {
		t.Fatalf("average degree %v far from target 22", avg)
	}
	// Determinism.
	q := Hamiltonian(769, 22, 1)
	if nnz(q) != nnz(p) {
		t.Fatalf("same seed differs: %d vs %d", nnz(p), nnz(q))
	}
}

func TestPermuteIsRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomPattern(rng, 30, 60)
	perm := Order(p, RandomOrder, 7)
	pp := p.Permute(perm)
	if err := validate(pp); err != nil {
		t.Fatal(err)
	}
	if nnz(pp) != nnz(p) {
		t.Fatalf("permute changed nnz")
	}
}

// Property: every ordering returns a valid permutation.
func TestOrderingsAreValidPermutations(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		p := randomPattern(rng, n, 3*n)
		for _, o := range []Ordering{Natural, RCM, MinDegree, RandomOrder, NestedDissection} {
			perm := Order(p, o, seed)
			if len(perm) != n {
				return false
			}
			seen := make([]bool, n)
			for _, v := range perm {
				if v < 0 || int(v) >= n || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEliminationTreeChain(t *testing.T) {
	// A path graph 0-1-2-3 in natural order: parent(i) = i+1.
	b := newBuilder(4)
	b.addEdge(0, 1)
	b.addEdge(1, 2)
	b.addEdge(2, 3)
	p := b.build()
	parent := EliminationTree(p)
	want := []int32{1, 2, 3, -1}
	for i := range want {
		if parent[i] != want[i] {
			t.Fatalf("parent = %v, want %v", parent, want)
		}
	}
}

// bruteFill computes nnz(L) by dense symbolic elimination — the oracle for
// ColCounts.
func bruteFill(p *Pattern) (int64, []int32) {
	n := p.N
	adj := make([]map[int]bool, n)
	for u := range adj {
		adj[u] = map[int]bool{}
		for _, v := range p.Adj[u] {
			adj[u][int(v)] = true
		}
	}
	counts := make([]int32, n)
	var fill int64
	for j := 0; j < n; j++ {
		// Column j of L: j plus its remaining higher neighbors.
		var higher []int
		for v := range adj[j] {
			if v > j {
				higher = append(higher, v)
			}
		}
		counts[j] = int32(1 + len(higher))
		fill += int64(counts[j])
		// Eliminate j: connect all higher neighbors pairwise.
		sort.Ints(higher)
		for a := 0; a < len(higher); a++ {
			for b := a + 1; b < len(higher); b++ {
				adj[higher[a]][higher[b]] = true
				adj[higher[b]][higher[a]] = true
			}
		}
	}
	return fill, counts
}

// Property: ColCounts matches brute-force symbolic elimination.
func TestColCountsAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		p := randomPattern(rng, n, 2*n)
		parent := EliminationTree(p)
		got := ColCounts(p, parent)
		_, want := bruteFill(p)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeFillBounds(t *testing.T) {
	p := Grid3D(6, 6, 6, 1, true)
	a := Analyze(p, identityPerm(p.N))
	// Fill is at least the original lower triangle and at most dense.
	minFill := int64(p.N + (nnz(p)-p.N)/2)
	maxFill := int64(p.N) * int64(p.N+1) / 2
	if a.FillL < minFill || a.FillL > maxFill {
		t.Fatalf("fill %d outside [%d, %d]", a.FillL, minFill, maxFill)
	}
	if a.Flops <= 0 {
		t.Fatalf("flops %v", a.Flops)
	}
}

func TestMinDegreeReducesFillOnGrid(t *testing.T) {
	// On a 3D grid, minimum degree must beat natural order and the random
	// order by a clear margin — the core property making COLPERM matter.
	p := Grid3D(8, 8, 8, 1, true)
	natural := Analyze(p, Order(p, Natural, 0)).FillL
	md := Analyze(p, Order(p, MinDegree, 0)).FillL
	random := Analyze(p, Order(p, RandomOrder, 1)).FillL
	if md >= natural {
		t.Fatalf("MD fill %d not below natural %d", md, natural)
	}
	if md >= random {
		t.Fatalf("MD fill %d not below random %d", md, random)
	}
}

func TestRCMBeatsRandomOnGrid(t *testing.T) {
	p := Grid3D(8, 8, 8, 1, true)
	rcm := Analyze(p, Order(p, RCM, 0)).FillL
	random := Analyze(p, Order(p, RandomOrder, 1)).FillL
	if rcm >= random {
		t.Fatalf("RCM fill %d not below random %d", rcm, random)
	}
}

func TestSupernodesPartitionProperties(t *testing.T) {
	p := Grid3D(6, 6, 6, 1, true)
	perm := Order(p, MinDegree, 0)
	a := Analyze(p, perm)
	for _, nsup := range []int{1, 8, 64, 1000} {
		for _, nrel := range []int{0, 4, 32} {
			snodes, stats := Supernodes(a.Parent, a.ColCounts, nsup, nrel)
			// Partition covers [0, n) contiguously.
			pos := 0
			for _, sn := range snodes {
				if sn.Start != pos || sn.Len < 1 || sn.Len > nsup {
					t.Fatalf("nsup=%d nrel=%d: bad supernode %+v at pos %d", nsup, nrel, sn, pos)
				}
				pos += sn.Len
			}
			if pos != p.N {
				t.Fatalf("partition covers %d of %d", pos, p.N)
			}
			if stats.Count != len(snodes) || stats.Padding < 0 {
				t.Fatalf("stats inconsistent: %+v", stats)
			}
		}
	}
}

func TestSupernodesRelaxationGrowsBlocks(t *testing.T) {
	p := Grid3D(6, 6, 6, 1, true)
	perm := Order(p, MinDegree, 0)
	a := Analyze(p, perm)
	_, strict := Supernodes(a.Parent, a.ColCounts, 64, 0)
	_, relaxed := Supernodes(a.Parent, a.ColCounts, 64, 16)
	if relaxed.Count > strict.Count {
		t.Fatalf("relaxation increased supernode count: %d > %d", relaxed.Count, strict.Count)
	}
	if relaxed.Count == strict.Count && relaxed.Padding == 0 {
		t.Logf("relaxation had no effect on this matrix (acceptable but unusual)")
	}
	if relaxed.AvgLen < strict.AvgLen {
		t.Fatalf("relaxation shrank average block: %v < %v", relaxed.AvgLen, strict.AvgLen)
	}
}

func TestSupernodesNSUP1(t *testing.T) {
	parent := []int32{1, 2, -1}
	counts := []int32{3, 2, 1}
	snodes, stats := Supernodes(parent, counts, 1, 0)
	if len(snodes) != 3 || stats.MaxLen != 1 {
		t.Fatalf("nsup=1 must give singleton supernodes: %+v", snodes)
	}
}

func TestPatternValidateCatchesCorruption(t *testing.T) {
	p := &Pattern{N: 2, Adj: [][]int32{{1}, {}}}
	if err := validate(p); err == nil {
		t.Fatalf("asymmetric edge accepted")
	}
	p2 := &Pattern{N: 2, Adj: [][]int32{{0}, {}}}
	if err := validate(p2); err == nil {
		t.Fatalf("self-loop accepted")
	}
	p3 := &Pattern{N: 1, Adj: [][]int32{{5}}}
	if err := validate(p3); err == nil {
		t.Fatalf("out-of-range neighbor accepted")
	}
}

func TestNestedDissectionValidAndEffective(t *testing.T) {
	p := Grid3D(10, 10, 10, 1, true)
	perm := Order(p, NestedDissection, 0)
	seen := make([]bool, p.N)
	for _, v := range perm {
		if v < 0 || int(v) >= p.N || seen[v] {
			t.Fatalf("invalid permutation")
		}
		seen[v] = true
	}
	nd := Analyze(p, perm).FillL
	natural := Analyze(p, Order(p, Natural, 0)).FillL
	random := Analyze(p, Order(p, RandomOrder, 1)).FillL
	if nd >= natural || nd >= random {
		t.Fatalf("ND fill %d not below natural %d / random %d", nd, natural, random)
	}
}

func TestNestedDissectionDisconnected(t *testing.T) {
	// Two disjoint chains: ND must order everything exactly once.
	b := newBuilder(8)
	b.addEdge(0, 1)
	b.addEdge(1, 2)
	b.addEdge(2, 3)
	b.addEdge(4, 5)
	b.addEdge(5, 6)
	b.addEdge(6, 7)
	p := b.build()
	perm := Order(p, NestedDissection, 0)
	if len(perm) != 8 {
		t.Fatalf("perm covers %d of 8", len(perm))
	}
	seen := map[int32]bool{}
	for _, v := range perm {
		if seen[v] {
			t.Fatalf("duplicate vertex %d", v)
		}
		seen[v] = true
	}
}

func TestOrderingNamesCoverEnum(t *testing.T) {
	for _, o := range []Ordering{Natural, RCM, MinDegree, RandomOrder, NestedDissection} {
		if o.String() == "UNKNOWN" {
			t.Fatalf("missing name for %d", int(o))
		}
	}
}
