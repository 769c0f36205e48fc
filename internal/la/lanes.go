package la

import "math"

// The four-lane kernels behind the LCM's O(n²) passes (internal/gp: covariance
// assembly, gradient sweep, k*). Like Dot, each is defined by its scalar loop
// — the sequence of IEEE operations every output or accumulator sees — and a
// vector body (lanes_amd64.s) that keeps four of those sequences in one
// register performs the same operations lane by lane: products rounded, then
// sums rounded, never fused. ExpInto is the one exception, stated there.
// Every wrapper bounds-checks the last element of each operand before its
// unchecked kernel runs.

// expTab holds expLanes' constants, one row of four equal lanes each, in the
// order lanes_amd64.s names them: Exp's (exp.go), then the kernel's own last
// three — the argument range inside which Exp takes no special-case branch
// (k = round(x·log₂e) stays in [−1021, 1023], so 2^k is a normal number) and
// the exponent bias as an integer.
var expTab = func() (t [16][4]float64) {
	for i, c := range [16]float64{
		expLog2e, expLn2U, expLn2L, 0.0625,
		expP8, expP7, expP6, expP5, expP4, expP3, 0.5, 1.0, 2.0,
		-708, 709, math.Float64frombits(0x3FF),
	} {
		t[i] = [4]float64{c, c, c, c}
	}
	return t
}()

// ExpInto sets dst[i] = Exp(src[i]) — bit for bit, on every input; dst may
// be src. Under vectorKernels, blocks of four arguments all inside
// [−708, 709] go through expLanes, a packed copy of Exp, and a block with any
// lane outside the range (NaN, ±Inf, overflow, a subnormal result) is four
// Exp calls; elsewhere the whole vector is a loop over Exp. This is the one
// lane kernel that fuses, because its contract is Exp's bits rather than a
// scalar loop of products and sums.
func ExpInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("la: ExpInto length mismatch")
	}
	i := 0
	if vectorKernels {
		for n4 := len(src) &^ 3; i < n4; {
			i += expLanes(&dst[i], &src[i], n4-i, &expTab)
			if i < n4 { // the kernel stopped at a block with a lane out of range
				blockDst, blockSrc := dst[i:i+4:i+4], src[i:i+4:i+4]
				for k, x := range blockSrc {
					blockDst[k] = Exp(x)
				}
				i += 4
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = Exp(src[i])
	}
}

// checkStrided panics unless rows 0 … rows−1 of a matrix stored with the
// given stride hold n elements each inside x.
func checkStrided(x []float64, rows, stride, n int) {
	if stride < 0 {
		panic("la: negative stride")
	}
	if rows > 0 && n > 0 {
		_ = x[(rows-1)*stride+n-1]
	}
}

// WeightedSumsInto sets dst[p] = scale·Σ_d w[d]·x[d·stride+p]: each output
// starts at +0, adds its products for d ascending, and is scaled last. The
// LCM assembly uses it with x the dimension-major squared-distance tensor, w
// the inverse-square lengthscales and scale −½ to produce a row of kernel
// arguments; lanes are four consecutive p.
func WeightedSumsInto(dst, w, x []float64, stride int, scale float64) {
	n, dim := len(dst), len(w)
	checkStrided(x, dim, stride, n)
	p := 0
	if vectorKernels && dim > 0 && n >= 4 {
		p = n &^ 3
		weightedSumsLanes(&dst[0], &w[0], &x[0], dim, stride, p, scale)
	}
	for ; p < n; p++ {
		acc := 0.0
		for d, wd := range w {
			acc += wd * x[d*stride+p]
		}
		dst[p] = scale * acc
	}
}

// NegSqDistInto sets dst[r] = −Σ_d w[d]·(pt[d] − x[d·stride+r])²: difference,
// square, weighted product and sum are separate roundings, d ascending from
// +0, and the negation is a sign flip. With x the dimension-major training
// coordinates and w = ½/l² this is one latent's row of k* arguments; lanes
// are four consecutive r.
func NegSqDistInto(dst, w, pt, x []float64, stride int) {
	n, dim := len(dst), len(w)
	if len(pt) != dim {
		panic("la: NegSqDistInto point length mismatch")
	}
	checkStrided(x, dim, stride, n)
	r := 0
	if vectorKernels && dim > 0 && n >= 4 {
		r = n &^ 3
		negSqDistLanes(&dst[0], &w[0], &pt[0], &x[0], dim, stride, r)
	}
	for ; r < n; r++ {
		acc := 0.0
		for d, wd := range w {
			diff := pt[d] - x[d*stride+r]
			sq := diff * diff
			acc += wd * sq
		}
		dst[r] = -acc
	}
}

// AccumLanesInto does acc[4d+l] += e[4j+l]·x[d·stride+j] for every row d of
// x, lane l < 4 and j ascending: len(acc)/4 rows of len(e)/4 elements. Each
// of the accumulators sees its products in j order, whatever else runs
// beside it. The LCM gradient sweep hands it a row's per-pair factors (four
// latents wide) and the squared distances to accumulate the lengthscale
// gradients; lanes are the latents, and up to four dimensions advance
// together so the adds of one j are independent chains.
func AccumLanesInto(acc, e, x []float64, stride int) {
	nd, n := len(acc)/4, len(e)/4
	if len(acc) != 4*nd || len(e) != 4*n {
		panic("la: AccumLanesInto operands are not four lanes wide")
	}
	checkStrided(x, nd, stride, n)
	if nd == 0 || n == 0 {
		return
	}
	if vectorKernels {
		for d := 0; d < nd; d += 4 {
			rows := nd - d
			if rows > 4 {
				rows = 4
			}
			accumLanes(&acc[4*d], &e[0], &x[d*stride], rows, stride, n)
		}
		return
	}
	for d := 0; d < nd; d++ {
		a := acc[4*d : 4*d+4 : 4*d+4]
		for j, s := range x[d*stride : d*stride+n] {
			ej := e[4*j : 4*j+4 : 4*j+4]
			a[0] += ej[0] * s
			a[1] += ej[1] * s
			a[2] += ej[2] * s
			a[3] += ej[3] * s
		}
	}
}
