//go:build !amd64 || purego

package la

// No vector kernels on this GOARCH, or the purego build tag asked for none:
// vectorKernels is false, so Dot, tile.dots, forwardSubst and the lanes.go
// kernels always run their scalar bodies — ExpInto a loop over Exp — and
// never reach these. Every result has the bits of the dispatched build, which
// is what `go test -tags purego` checks on an amd64 runner.

func haveVectorKernels() bool { return false }

func dotLanes(a, b *float64, n int, s *[4]float64) { panic("la: no vector kernel") }

func dotRows4Lanes(r0, r1, r2, r3, b *float64, n int, s *[16]float64) {
	panic("la: no vector kernel")
}

func dotRows2x4Lanes(r0, r1, b0, b1, b2, b3 *float64, n int, s *[32]float64) {
	panic("la: no vector kernel")
}

func expLanes(dst, src *float64, n int, tab *[16][4]float64) int { panic("la: no vector kernel") }

func weightedSumsLanes(dst, w, x *float64, dim, stride, n int, scale float64) {
	panic("la: no vector kernel")
}

func negSqDistLanes(dst, w, pt, x *float64, dim, stride, n int) { panic("la: no vector kernel") }

func accumLanes(acc, e, x *float64, nd, stride, n int) { panic("la: no vector kernel") }
