// Package rf implements random-forest regression from scratch: CART
// regression trees (variance-reduction splits) grown on bootstrap resamples
// with per-split feature subsampling, and ensemble mean/variance
// prediction. It is the substrate for the SuRF-style baseline tuner
// (Balaprakash's "Search using Random Forest", discussed in the paper's
// Section 5), whose strength is the natural handling of categorical
// parameters via axis-aligned splits.
package rf

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/mpx"
	"repro/internal/rng"
)

// Params configures forest growth.
type Params struct {
	Trees int // ensemble size (default 50)
	Seed  int64
	// Workers bounds the goroutine parallelism of tree growth (default 1).
	// The fitted forest is bitwise independent of the worker count: every
	// tree draws an RNG stream seeded by its tree index, never by which
	// goroutine grew it, so scheduling cannot leak into the ensemble.
	Workers int
}

func (p *Params) defaults() {
	if p.Trees <= 0 {
		p.Trees = 50
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
}

// Growth limits of every tree: the depth cap and the minimum samples per
// leaf; and the fraction of features tried per split (at least one).
const (
	maxDepth    = 12
	minLeaf     = 2
	featureFrac = 1.0 / 3
)

// node is one tree node; leaves have feature == -1.
type node struct {
	feature     int
	threshold   float64
	left, right int32 // child indices in the tree's node arena
	value       float64
}

// tree is a grown regression tree over an arena of nodes.
type tree struct {
	nodes []node
}

func (t *tree) predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Forest is a fitted random-forest regressor.
type Forest struct {
	trees []tree
	dim   int
}

// Fit grows a forest on rows X (each of equal length) and targets y.
func Fit(X [][]float64, y []float64, params Params) (*Forest, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("rf: need equally many rows and targets")
	}
	params.defaults()
	dim := len(X[0])
	for _, row := range X {
		if len(row) != dim {
			return nil, errors.New("rf: ragged feature rows")
		}
	}
	mtry := int(math.Ceil(featureFrac * float64(dim)))
	if mtry < 1 {
		mtry = 1
	}
	f := &Forest{dim: dim, trees: make([]tree, params.Trees)}
	// Trees grow in parallel, a chunk of them per worker, but each draws its
	// own stream: the chunk's one generator is reseeded by the tree index
	// before every tree, so the forest never depends on goroutine scheduling.
	chunk := (params.Trees-1)/params.Workers + 1
	mpx.ParallelChunks(params.Trees, chunk, params.Workers, func(_, lo, hi int) {
		g := newGrower(X, y, mtry)
		for b := lo; b < hi; b++ {
			g.rng.Seed(rng.Mix(params.Seed, rng.Tree, uint64(b)))
			f.trees[b] = g.tree()
		}
	})
	return f, nil
}

// grower grows one chunk's trees, one at a time, over scratch it reuses from
// node to node and tree to tree; only a finished tree's nodes are copied out.
type grower struct {
	X    [][]float64
	y    []float64
	rng  *rand.Rand
	mtry int

	nodes  []node   // the tree being grown
	idx    []int    // its bootstrap sample; every node owns a contiguous run of it
	spill  []int    // partition scratch for a node's right-hand samples
	perm   []int    // the features in the order this node tries them
	sorter byValue  // a feature's (value, sample) pairs over one node
	pairs  []valued // sorter's backing array
}

func newGrower(X [][]float64, y []float64, mtry int) *grower {
	n := len(X)
	return &grower{
		X: X, y: y, mtry: mtry,
		rng: rng.New(0),
		// Every leaf holds at least one of the n bootstrap samples, so a tree
		// has at most 2n−1 nodes and the arena never grows.
		nodes: make([]node, 0, 2*n-1),
		idx:   make([]int, n),
		spill: make([]int, n),
		perm:  make([]int, len(X[0])),
		pairs: make([]valued, n),
	}
}

// tree grows one tree from the generator's current state: a bootstrap
// resample, then the recursive splits.
func (g *grower) tree() tree {
	for i := range g.idx {
		g.idx[i] = g.rng.Intn(len(g.X))
	}
	g.nodes = g.nodes[:0]
	g.grow(g.idx, 0)
	return tree{nodes: slices.Clone(g.nodes)}
}

// grow recursively splits the sample set idx, returning the node index. The
// split reorders idx in place: left samples first, then right, each side in
// the order idx held them.
func (g *grower) grow(idx []int, depth int) int32 {
	mean := 0.0
	for _, i := range idx {
		mean += g.y[i]
	}
	mean /= float64(len(idx))

	self := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{feature: -1, value: mean})
	if depth >= maxDepth || len(idx) < 2*minLeaf {
		return self
	}
	feature, threshold, ok := g.bestSplit(idx)
	if !ok {
		return self
	}
	nl, nr := 0, 0
	for _, i := range idx {
		if g.X[i][feature] <= threshold {
			idx[nl] = i
			nl++
		} else {
			g.spill[nr] = i
			nr++
		}
	}
	copy(idx[nl:], g.spill[:nr])
	if nl < minLeaf || nr < minLeaf {
		return self
	}
	l := g.grow(idx[:nl], depth+1)
	r := g.grow(idx[nl:], depth+1)
	g.nodes[self].feature = feature
	g.nodes[self].threshold = threshold
	g.nodes[self].left = l
	g.nodes[self].right = r
	return self
}

// valued is one sample's value of the feature being scanned.
type valued struct {
	v float64
	i int // sample index
}

// byValue orders a node's pairs by value. sort.Sort runs the pdqsort that
// sort.Slice runs, comparison for comparison and swap for swap, so equal
// values keep the order sort.Slice left them in.
type byValue struct{ s []valued }

func (b *byValue) Len() int           { return len(b.s) }
func (b *byValue) Less(i, j int) bool { return b.s[i].v < b.s[j].v }
func (b *byValue) Swap(i, j int)      { b.s[i], b.s[j] = b.s[j], b.s[i] }

// bestSplit finds the (feature, threshold) minimizing the weighted child
// SSE over an mtry-subset of features.
func (g *grower) bestSplit(idx []int) (int, float64, bool) {
	// rand.Perm's draws, into reused scratch.
	for i := range g.perm {
		j := g.rng.Intn(i + 1)
		g.perm[i] = g.perm[j]
		g.perm[j] = i
	}
	// Before any sample moves left, every sample is on the right.
	var sumAll, sumSqAll float64
	for _, i := range idx {
		sumAll += g.y[i]
		sumSqAll += g.y[i] * g.y[i]
	}
	bestSSE := math.Inf(1)
	bestFeature, bestThreshold := -1, 0.0

	pairs := g.pairs[:len(idx)]
	for _, feat := range g.perm[:g.mtry] {
		for k, i := range idx {
			pairs[k] = valued{g.X[i][feat], i}
		}
		g.sorter.s = pairs
		sort.Sort(&g.sorter)
		// Incremental SSE scan: maintain left/right sums.
		var sumL, sumSqL float64
		sumR, sumSqR := sumAll, sumSqAll
		nL, nR := 0.0, float64(len(idx))
		for k := 0; k < len(pairs)-1; k++ {
			yi := g.y[pairs[k].i]
			sumL += yi
			sumSqL += yi * yi
			sumR -= yi
			sumSqR -= yi * yi
			nL++
			nR--
			v, next := pairs[k].v, pairs[k+1].v
			if v == next {
				continue // can't split between equal values
			}
			sse := (sumSqL - sumL*sumL/nL) + (sumSqR - sumR*sumR/nR)
			if sse < bestSSE {
				bestSSE = sse
				bestFeature = feat
				bestThreshold = (v + next) / 2
			}
		}
	}
	return bestFeature, bestThreshold, bestFeature >= 0
}

// PredictWith returns the ensemble mean and across-tree variance at x — the
// variance serving as the (crude but useful) uncertainty estimate for
// acquisition functions — over caller-held scratch of at least NumTrees
// values: each tree is walked once, its prediction kept for the variance
// pass, and nothing is allocated.
func (f *Forest) PredictWith(scratch, x []float64) (mean, variance float64) {
	if len(x) != f.dim {
		panic("rf: prediction dimension mismatch")
	}
	vals := scratch[:len(f.trees)]
	for i := range f.trees {
		vals[i] = f.trees[i].predict(x)
		mean += vals[i]
	}
	n := float64(len(f.trees))
	mean /= n
	for _, v := range vals {
		d := v - mean
		variance += d * d
	}
	variance /= n
	return mean, variance
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }
