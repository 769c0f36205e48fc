package la

import "math"

// The four-lane kernels behind the LCM's O(n²) passes (internal/gp: covariance
// assembly, gradient sweep, k*). Like Dot, each is defined by its scalar loop
// — the sequence of IEEE operations every output or accumulator sees — and a
// vector body (lanes_amd64.s) that keeps four of those sequences in one
// register performs the same operations lane by lane: products rounded, then
// sums rounded, never fused. ExpInto is the one exception, stated there.
// Every wrapper bounds-checks the last element of each operand before its
// unchecked kernel runs. On the vector tiers a wrapper hands the kernel the
// whole length: the kernels mask their own last block, VMASKMOVPD under
// laneMasks on AVX2 and an opmask on AVX-512, so the rows the LCM sweeps —
// n − r pairs long, mostly ending in a partial block — never fall back to a
// Go tail loop; the scalar loops here run on the scalar tier alone, as the
// oracle (and for an empty w, which the kernels do not take). Every kernel
// loop head is 64-byte aligned (PCALIGN $64, TestLoopHeadsAligned).

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
// be src. Under vectorKernels the whole vector goes through expLanes, a
// packed copy of Exp that masks its own last block (a masked-off lane counts
// as in range and is never stored), and a block with any lane outside
// [−708, 709] (NaN, ±Inf, overflow, a subnormal result) is four Exp calls,
// or fewer at the end; elsewhere the whole vector is a loop over Exp. This
// is the one lane kernel that fuses, because its contract is Exp's bits
// rather than a scalar loop of products and sums.
func ExpInto(dst, src []float64) {
	n := len(src)
	if len(dst) != n {
		panic("la: ExpInto length mismatch")
	}
	if !vectorKernels {
		for i, x := range src {
			dst[i] = Exp(x)
		}
		return
	}
	for i := 0; i < n; {
		if wideKernels {
			i += expLanesWide(&dst[i], &src[i], n-i, &expTab)
		} else {
			i += expLanes(&dst[i], &src[i], n-i, &expTab, &laneMasks)
		}
		// The kernel stopped at a block with a lane out of range.
		for end := min(i+4, n); i < end; i++ {
			dst[i] = Exp(src[i])
		}
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
// arguments; lanes are four consecutive p, the last block masked.
func WeightedSumsInto(dst, w, x []float64, stride int, scale float64) {
	n, dim := len(dst), len(w)
	checkStrided(x, dim, stride, n)
	if vectorKernels && dim > 0 && n > 0 {
		if wideKernels {
			weightedSumsLanesWide(&dst[0], &w[0], &x[0], dim, stride, n, scale)
		} else {
			weightedSumsLanes(&dst[0], &w[0], &x[0], dim, stride, n, scale, &laneMasks)
		}
		return
	}
	for p := range dst {
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
// are four consecutive r, the last block masked.
func NegSqDistInto(dst, w, pt, x []float64, stride int) {
	n, dim := len(dst), len(w)
	if len(pt) != dim {
		panic("la: NegSqDistInto point length mismatch")
	}
	checkStrided(x, dim, stride, n)
	if vectorKernels && dim > 0 && n > 0 {
		if wideKernels {
			negSqDistLanesWide(&dst[0], &w[0], &pt[0], &x[0], dim, stride, n)
		} else {
			negSqDistLanes(&dst[0], &w[0], &pt[0], &x[0], dim, stride, n, &laneMasks)
		}
		return
	}
	for r := range dst {
		acc := 0.0
		for d, wd := range w {
			diff := pt[d] - x[d*stride+r]
			sq := diff * diff
			acc += wd * sq
		}
		dst[r] = -acc
	}
}

// SqDiffsInto sets dst[d·n+j] = (x[d·stride] − x[d·stride+j])² for j < n and
// every row d of dst (len(dst)/n of them): difference and square are two
// separate roundings. With x the dimension-major training coordinates from
// sample r on, that is sample r's squared differences against samples r …
// r+n−1, one row of n per dimension — the operand the LCM's assembly hands
// WeightedSumsInto and its gradient sweep AccumLanesInto, filled per row
// instead of held for every pair. Lanes are four consecutive j, and the
// vector bodies mask each row's last block themselves: the rows are short
// (n − r for row r), so a tail loop per dimension would cost as much as the
// kernel.
func SqDiffsInto(dst, x []float64, stride, n int) {
	if n <= 0 {
		return
	}
	dim := len(dst) / n
	if len(dst) != dim*n {
		panic("la: SqDiffsInto destination is not whole rows")
	}
	checkStrided(x, dim, stride, n)
	if dim == 0 {
		return
	}
	if vectorKernels {
		if wideKernels {
			sqDiffsLanesWide(&dst[0], &x[0], dim, stride, n)
		} else {
			sqDiffsLanes(&dst[0], &x[0], dim, stride, n, &laneMasks)
		}
		return
	}
	for d := 0; d < dim; d++ {
		xd, row := x[d*stride:d*stride+n], dst[d*n:(d+1)*n]
		for j, xs := range xd {
			diff := xd[0] - xs
			row[j] = diff * diff
		}
	}
}

// laneMasks are the AVX2 kernels' VMASKMOVPD masks (expLanes,
// weightedSumsLanes, negSqDistLanes, sqDiffsLanes): a last block of k lanes
// is selected by the four entries from 4 − k on, and a masked-off lane is
// neither loaded nor stored.
var laneMasks = [8]int64{-1, -1, -1, -1, 0, 0, 0, 0}

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
