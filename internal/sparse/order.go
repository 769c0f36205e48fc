package sparse

import (
	"container/heap"
	"slices"
	"sort"
)

// An Ordering names one of the COLPERM fill-reducing permutation choices.
type Ordering int

const (
	// Natural keeps the original order (SuperLU's NATURAL).
	Natural Ordering = iota
	// RCM is reverse Cuthill–McKee (bandwidth-reducing).
	RCM
	// MinDegree is quotient-graph minimum degree (SuperLU's MMD_AT_PLUS_A
	// analogue).
	MinDegree
	// RandomOrder is a seeded random permutation — a deliberately bad
	// baseline, making COLPERM a genuinely consequential categorical
	// parameter.
	RandomOrder
	// NestedDissection recursively bisects the graph with BFS level-set
	// separators (SPARSPAK-style; SuperLU's METIS_AT_PLUS_A analogue).
	NestedDissection
)

// OrderingNames lists the categorical labels in Ordering value order.
var OrderingNames = []string{"NATURAL", "RCM", "MMD", "RANDOM", "METIS"}

func (o Ordering) String() string {
	if int(o) < len(OrderingNames) {
		return OrderingNames[o]
	}
	return "UNKNOWN"
}

// Order computes the permutation for the given strategy: perm[k] is the old
// vertex eliminated k-th.
func Order(p *Pattern, o Ordering, seed int64) []int32 {
	switch o {
	case RCM:
		return orderRCM(p)
	case MinDegree:
		return orderMinDegree(p)
	case NestedDissection:
		return orderND(p)
	case RandomOrder:
		perm := identityPerm(p.N)
		// Deterministic Fisher–Yates driven by a simple LCG (avoids pulling
		// math/rand into hot paths).
		state := uint64(seed)*6364136223846793005 + 1442695040888963407
		for i := p.N - 1; i > 0; i-- {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		return perm
	default:
		return identityPerm(p.N)
	}
}

func identityPerm(n int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// orderRCM runs reverse Cuthill–McKee from a pseudo-peripheral vertex of
// each connected component.
func orderRCM(p *Pattern) []int32 {
	n := p.N
	visited := make([]bool, n)
	perm := make([]int32, 0, n)
	deg := func(v int32) int { return len(p.Adj[v]) }
	seen := make([]int, n) // seen[v] == stamp: the current BFS reached v
	stamp := 0

	bfsLevels := func(start int32) (last int32, order []int32) {
		stamp++
		order = append(order, start)
		seen[start] = stamp
		frontier := []int32{start}
		last = start
		for len(frontier) > 0 {
			var next []int32
			for _, u := range frontier {
				nbrs := append([]int32(nil), p.Adj[u]...)
				sort.Slice(nbrs, func(i, j int) bool { return deg(nbrs[i]) < deg(nbrs[j]) })
				for _, v := range nbrs {
					if seen[v] != stamp && !visited[v] {
						seen[v] = stamp
						next = append(next, v)
						order = append(order, v)
					}
				}
			}
			if len(next) > 0 {
				last = next[len(next)-1]
			}
			frontier = next
		}
		return last, order
	}

	for comp := 0; comp < n; comp++ {
		if visited[comp] {
			continue
		}
		// Pseudo-peripheral start: BFS twice from the component seed.
		far, _ := bfsLevels(int32(comp))
		_, order := bfsLevels(far)
		for _, v := range order {
			visited[v] = true
			perm = append(perm, v)
		}
	}
	// Reverse for RCM.
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// degItem is a heap entry for lazy-deletion minimum degree selection.
type degItem struct {
	deg int
	v   int32
}

type degHeap []degItem

func (h degHeap) Len() int { return len(h) }
func (h degHeap) Less(i, j int) bool {
	if h[i].deg != h[j].deg {
		return h[i].deg < h[j].deg
	}
	return h[i].v < h[j].v
}
func (h degHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *degHeap) Push(x any)   { *h = append(*h, x.(degItem)) }
func (h *degHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// orderMinDegree is a quotient-graph minimum-degree ordering with
// AMD-style approximate external degrees (upper bounds) and element
// absorption.
func orderMinDegree(p *Pattern) []int32 {
	n := p.N
	// Variable-variable adjacency (mutable sorted copies).
	adj := make([][]int32, n)
	for u := range adj {
		adj[u] = slices.Clone(p.Adj[u])
	}
	// Elements created by eliminations.
	var elems [][]int32            // element id → boundary variables (alive subset maintained lazily)
	varElems := make([][]int32, n) // variable → ids of its unabsorbed elements
	absorbed := make([]bool, n)    // element id → merged into a later element
	eliminated := make([]bool, n)
	approxDeg := make([]int, n)
	h := make(degHeap, 0, n)
	for u := 0; u < n; u++ {
		approxDeg[u] = len(adj[u])
		h = append(h, degItem{deg: approxDeg[u], v: int32(u)})
	}
	heap.Init(&h)

	perm := make([]int32, 0, n)
	mark := make([]int, n)
	stamp := 0

	for len(perm) < n {
		var v int32 = -1
		for h.Len() > 0 {
			it := heap.Pop(&h).(degItem)
			if !eliminated[it.v] && it.deg == approxDeg[it.v] {
				v = it.v
				break
			}
		}
		if v < 0 {
			// Heap exhausted by stale entries; pick any remaining vertex.
			for u := 0; u < n; u++ {
				if !eliminated[u] {
					v = int32(u)
					break
				}
			}
		}
		eliminated[v] = true
		perm = append(perm, v)

		// Boundary = alive variable neighbors ∪ boundaries of adjacent
		// elements (computed with a visitation stamp).
		stamp++
		var boundary []int32
		for _, u := range adj[v] {
			if !eliminated[u] && mark[u] != stamp {
				mark[u] = stamp
				boundary = append(boundary, u)
			}
		}
		for _, e := range varElems[v] {
			for _, u := range elems[e] {
				if !eliminated[u] && u != v && mark[u] != stamp {
					mark[u] = stamp
					boundary = append(boundary, u)
				}
			}
			elems[e] = nil
			absorbed[e] = true
		}
		// boundary's order flows into element lists, heap push order, and
		// ultimately the permutation, so it is sorted.
		slices.Sort(boundary)

		newElem := int32(len(elems))
		elems = append(elems, boundary)
		for _, u := range boundary {
			// Remove v and absorbed elements from u's lists; attach the new
			// element.
			if i, ok := slices.BinarySearch(adj[u], v); ok {
				adj[u] = slices.Delete(adj[u], i, i+1)
			}
			varElems[u] = append(slices.DeleteFunc(varElems[u], func(e int32) bool { return absorbed[e] }), newElem)
			// Approximate external degree: variable neighbors plus element
			// boundary sizes (upper bound; AMD's d̄).
			d := len(adj[u])
			for _, e := range varElems[u] {
				d += len(elems[e]) - 1
			}
			if d != approxDeg[u] {
				approxDeg[u] = d
				heap.Push(&h, degItem{deg: d, v: u})
			}
		}
	}
	return perm
}
