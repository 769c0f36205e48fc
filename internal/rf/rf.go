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
	"sort"

	"repro/internal/mpx"
)

// Params configures forest growth.
type Params struct {
	Trees int // ensemble size (default 50)
	Seed  int64
	// Workers bounds the goroutine parallelism of tree growth (default 1).
	// The fitted forest is bitwise independent of the worker count: every
	// tree owns an RNG seeded by its tree index, never by which goroutine
	// grew it, so scheduling cannot leak into the ensemble.
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
	// Trees grow in parallel but each draws from its own RNG seeded by the
	// tree index, so the forest never depends on goroutine scheduling.
	mpx.ParallelFor(params.Trees, params.Workers, func(b int) {
		rng := rand.New(rand.NewSource(params.Seed + int64(b)*2654435761))
		// Bootstrap resample.
		idx := make([]int, len(X))
		for i := range idx {
			idx[i] = rng.Intn(len(X))
		}
		g := &grower{X: X, y: y, rng: rng, mtry: mtry}
		g.grow(idx, 0)
		f.trees[b] = tree{nodes: g.nodes}
	})
	return f, nil
}

// grower builds one tree.
type grower struct {
	X     [][]float64
	y     []float64
	rng   *rand.Rand
	mtry  int
	nodes []node
}

// grow recursively splits the sample set idx, returning the node index.
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
	var left, right []int
	for _, i := range idx {
		if g.X[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < minLeaf || len(right) < minLeaf {
		return self
	}
	l := g.grow(left, depth+1)
	r := g.grow(right, depth+1)
	g.nodes[self].feature = feature
	g.nodes[self].threshold = threshold
	g.nodes[self].left = l
	g.nodes[self].right = r
	return self
}

// bestSplit finds the (feature, threshold) minimizing the weighted child
// SSE over an mtry-subset of features.
func (g *grower) bestSplit(idx []int) (int, float64, bool) {
	features := g.rng.Perm(len(g.X[0]))[:g.mtry]
	bestSSE := math.Inf(1)
	bestFeature, bestThreshold := -1, 0.0

	vals := make([]float64, len(idx))
	order := make([]int, len(idx))
	for _, feat := range features {
		for k, i := range idx {
			vals[k] = g.X[i][feat]
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		// Incremental SSE scan: maintain left/right sums.
		var sumL, sumSqL float64
		sumR, sumSqR := 0.0, 0.0
		for _, i := range idx {
			sumR += g.y[i]
			sumSqR += g.y[i] * g.y[i]
		}
		nL, nR := 0.0, float64(len(idx))
		for k := 0; k < len(order)-1; k++ {
			yi := g.y[idx[order[k]]]
			sumL += yi
			sumSqL += yi * yi
			sumR -= yi
			sumSqR -= yi * yi
			nL++
			nR--
			v, next := vals[order[k]], vals[order[k+1]]
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

// Predict returns the ensemble mean and across-tree variance at x — the
// variance serving as the (crude but useful) uncertainty estimate for
// acquisition functions.
func (f *Forest) Predict(x []float64) (mean, variance float64) {
	if len(x) != f.dim {
		panic("rf: prediction dimension mismatch")
	}
	n := float64(len(f.trees))
	for i := range f.trees {
		mean += f.trees[i].predict(x)
	}
	mean /= n
	for i := range f.trees {
		d := f.trees[i].predict(x) - mean
		variance += d * d
	}
	variance /= n
	return mean, variance
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }
