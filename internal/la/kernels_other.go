//go:build !amd64 || purego

package la

// No vector kernels on this GOARCH, or the purego build tag asked for none:
// the tier is scalar, so Dot, tile.dots, forwardSubst, the Cholesky and
// inverse tiles and the lanes.go kernels always run their scalar bodies —
// ExpInto a loop over Exp — and never reach these. Every result has the bits of the dispatched build, which
// is what `go test -tags purego` checks on an amd64 runner.

func detectTier() tier { return tierScalar }

func dotLanes(a, b *float64, n int, s *[4]float64) { panic("la: no vector kernel") }

func dotRows4Lanes(r0, r1, r2, r3, b *float64, n int, s *[16]float64) {
	panic("la: no vector kernel")
}

func dotRows2x4Lanes(r0, r1, b0, b1, b2, b3 *float64, n int, s *[32]float64) {
	panic("la: no vector kernel")
}

func forwardBlock4(r0, r1, r2, r3, b0, b1, b2, b3 *float64, i int) {
	panic("la: no vector kernel")
}

func forwardBlock4Wide(r0, r1, r2, r3, b0, b1, b2, b3 *float64, i int) {
	panic("la: no vector kernel")
}

func cholStrip4(x0, x1, x2, x3, l *float64, tiles, step, diag int, spill *[32]float64) int {
	panic("la: no vector kernel")
}

func invWStrip4(xa, ya, xb, yb, l *float64, rows, step int, w00a, w00b float64, spill *[32]float64) {
	panic("la: no vector kernel")
}

func wtwStrip(x, y, w, iv, out *float64, quads, nlast, length, step int, w00 float64) {
	panic("la: no vector kernel")
}

func gemmStrip(x, y, xo, yo, l *float64, quads, length, step int) {
	panic("la: no vector kernel")
}

func expLanes(dst, src *float64, n int, tab *[16][4]float64, masks *[8]int64) int {
	panic("la: no vector kernel")
}

func weightedSumsLanes(dst, w, x *float64, dim, stride, n int, scale float64, masks *[8]int64) {
	panic("la: no vector kernel")
}

func negSqDistLanes(dst, w, pt, x *float64, dim, stride, n int, masks *[8]int64) {
	panic("la: no vector kernel")
}

func accumLanes(acc, e, x *float64, nd, stride, n int) { panic("la: no vector kernel") }

func sqDiffsLanes(dst, x *float64, dim, stride, n int, masks *[8]int64) {
	panic("la: no vector kernel")
}

func expLanesWide(dst, src *float64, n int, tab *[16][4]float64) int { panic("la: no vector kernel") }

func weightedSumsLanesWide(dst, w, x *float64, dim, stride, n int, scale float64) {
	panic("la: no vector kernel")
}

func negSqDistLanesWide(dst, w, pt, x *float64, dim, stride, n int) { panic("la: no vector kernel") }

func sqDiffsLanesWide(dst, x *float64, dim, stride, n int) { panic("la: no vector kernel") }
