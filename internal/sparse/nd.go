package sparse

// Nested dissection ordering via recursive level-set bisection
// (SPARSPAK-style): find a pseudo-peripheral vertex, split the BFS level
// structure at the median level, take the boundary as a separator, and
// order the two halves recursively before the separator. For grid-like
// graphs this achieves the classic O(n log n) fill bound that minimum
// degree only approaches heuristically.

import "slices"

// dissection holds one nested dissection's vertex sets as stamp arrays
// sized n, allocated once per ordering: v belongs to the fragment being
// split while member[v] == frag, and the current search has reached it
// while seen[v] == search.
type dissection struct {
	p            *Pattern
	member, seen []int
	frag, search int
}

// enter makes vertices the current fragment.
func (d *dissection) enter(vertices []int32) {
	d.frag++
	for _, v := range vertices {
		d.member[v] = d.frag
	}
}

func (d *dissection) in(v int32) bool { return d.member[v] == d.frag }

// orderND computes a nested dissection permutation: perm[k] is the old
// vertex eliminated k-th.
func orderND(p *Pattern) []int32 {
	n := p.N
	perm := make([]int32, 0, n)
	visited := make([]bool, n)
	d := &dissection{p: p, member: make([]int, n), seen: make([]int, n)}

	var recurse func(vertices []int32)
	recurse = func(vertices []int32) {
		const smallCutoff = 32
		if len(vertices) <= smallCutoff {
			// Base case: order the fragment by (local) minimum degree —
			// cheap and good at leaf size.
			perm = append(perm, d.localMinDegree(vertices)...)
			return
		}
		// BFS level structure from a pseudo-peripheral vertex of this
		// fragment.
		d.enter(vertices)
		start := d.pseudoPeripheral(vertices[0])
		levels := d.bfsLevels(start, vertices)
		if len(levels) < 3 {
			// No useful separator (dense or tiny diameter): fall back.
			perm = append(perm, d.localMinDegree(vertices)...)
			return
		}
		// Separator = the median BFS level; halves = levels on either side.
		mid := len(levels) / 2
		var left, right, sep []int32
		for l, lv := range levels {
			switch {
			case l < mid:
				left = append(left, lv...)
			case l == mid:
				sep = append(sep, lv...)
			default:
				right = append(right, lv...)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			perm = append(perm, d.localMinDegree(vertices)...)
			return
		}
		recurse(left)
		recurse(right)
		perm = append(perm, sep...)
	}

	// Handle disconnected graphs component by component.
	for v := 0; v < n; v++ {
		if visited[v] {
			continue
		}
		comp := collectComponent(p, int32(v), visited)
		recurse(comp)
	}
	return perm
}

// collectComponent gathers the connected component of start.
func collectComponent(p *Pattern, start int32, visited []bool) []int32 {
	var comp []int32
	queue := []int32{start}
	visited[start] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		comp = append(comp, u)
		for _, w := range p.Adj[u] {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return comp
}

// pseudoPeripheral runs BFS twice within the fragment to approximate a
// diameter endpoint: the last vertex the second search reaches.
func (d *dissection) pseudoPeripheral(start int32) int32 {
	for range 2 {
		levels := d.bfs(start)
		last := levels[len(levels)-1]
		start = last[len(last)-1]
	}
	return start
}

// bfs returns the level sets of a breadth-first search from start restricted
// to the fragment.
func (d *dissection) bfs(start int32) [][]int32 {
	d.search++
	d.seen[start] = d.search
	var levels [][]int32
	for frontier := []int32{start}; len(frontier) > 0; {
		levels = append(levels, frontier)
		var next []int32
		for _, u := range frontier {
			for _, w := range d.p.Adj[u] {
				if d.in(w) && d.seen[w] != d.search {
					d.seen[w] = d.search
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return levels
}

// bfsLevels returns bfs(start)'s levels plus, sorted as a final level, the
// fragment vertices unreachable from start.
func (d *dissection) bfsLevels(start int32, vertices []int32) [][]int32 {
	levels := d.bfs(start)
	var stragglers []int32
	for _, v := range vertices {
		if d.seen[v] != d.search {
			stragglers = append(stragglers, v)
		}
	}
	if len(stragglers) > 0 {
		slices.Sort(stragglers)
		levels = append(levels, stragglers)
	}
	return levels
}

// localMinDegree orders a small fragment by repeated minimum degree within
// the fragment (simple quadratic implementation; fragments are tiny).
func (d *dissection) localMinDegree(vertices []int32) []int32 {
	d.enter(vertices)
	out := make([]int32, 0, len(vertices))
	remaining := append([]int32(nil), vertices...)
	for len(remaining) > 0 {
		bestIdx := 0
		bestDeg := 1 << 30
		for i, v := range remaining {
			deg := 0
			for _, w := range d.p.Adj[v] {
				if d.in(w) {
					deg++
				}
			}
			if deg < bestDeg {
				bestDeg = deg
				bestIdx = i
			}
		}
		v := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		d.member[v] = 0 // leaves the fragment
		out = append(out, v)
	}
	return out
}
