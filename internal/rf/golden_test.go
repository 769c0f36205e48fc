package rf

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// TestGoldenFit pins the forest's built-in growth limits (depth cap 12,
// minimum leaf 2) and the zero-value defaults beside them: a fixed dataset
// and seed, predictions compared at math.Float64bits. Recorded while the
// limits were still settable fields; re-recorded when the tree streams
// moved to rng.Mix(seed, rng.Tree, b) (the nodes and predictions are draws
// of the bootstrap, the limits unchanged). The dataset is a steep 1-D
// ridge in 3-D, so splits peel thin slices off one side and the trees run
// into the depth cap; the node count pins the cap and the leaf floor
// directly.
func TestGoldenFit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var y []float64
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, la.Exp(9*x[0])+x[1]-x[2]*x[2]) // la.Exp: the same bits with and without FMA
	}
	f, err := Fit(X, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	nodes, depth := 0, 0
	for i := range f.trees {
		nodes += len(f.trees[i].nodes)
		if d := treeDepth(&f.trees[i], 0); d > depth {
			depth = d
		}
	}
	h := fnv.New64a()
	var b [8]byte
	for k := 0; k < 20; k++ {
		mean, variance := predict(f, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		for _, v := range []float64{mean, variance} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if f.NumTrees() != 50 || nodes != 9144 || depth != 12 || h.Sum64() != 0xd17d35a6e72dda7f {
		t.Errorf("forest: %d trees, %d nodes, depth %d, prediction hash %#x", f.NumTrees(), nodes, depth, h.Sum64())
	}
}

// TestGoldenFitTies pins growth where nearly every split meets ties: integer
// and categorical-valued columns, and every row present twice, so the split
// sort orders equal values and the partition keeps each child's order — both
// feed the floating-point sums of the split scan and the leaf means. Node count
// and predictions at math.Float64bits, the same at Workers 1 and 8;
// re-recorded when the tree streams moved to rng.Mix(seed, rng.Tree, b).
func TestGoldenFitTies(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var X [][]float64
	var y []float64
	for i := 0; i < 150; i++ {
		x := []float64{
			float64(rng.Intn(8)),            // integer
			float64(rng.Intn(3)),            // categorical index
			float64(rng.Intn(4)),            // integer
			math.Round(rng.Float64()*4) / 4, // real on a coarse grid
		}
		v := math.Round(8*(x[0]*x[0]/7+[]float64{1, -2, 0.5}[int(x[1])]+x[2]*x[3])) / 8
		for dup := 0; dup < 2; dup++ {
			X = append(X, x)
			y = append(y, v)
		}
	}
	for _, workers := range []int{1, 8} {
		f, err := Fit(X, y, Params{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		nodes := 0
		for i := range f.trees {
			nodes += len(f.trees[i].nodes)
		}
		h := fnv.New64a()
		var b [8]byte
		for k := 0; k < 40; k++ {
			x := []float64{float64(k % 8), float64(k % 3), float64(k % 4), float64(k%5) / 4}
			mean, variance := predict(f, x)
			for _, v := range []float64{mean, variance} {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if nodes != 6530 || h.Sum64() != 0x6a6f0a6e0b713e54 {
			t.Errorf("workers %d: %d nodes, prediction hash %#x", workers, nodes, h.Sum64())
		}
	}
}

func treeDepth(t *tree, i int32) int {
	n := &t.nodes[i]
	if n.feature < 0 {
		return 0
	}
	l, r := treeDepth(t, n.left), treeDepth(t, n.right)
	if r > l {
		l = r
	}
	return l + 1
}
