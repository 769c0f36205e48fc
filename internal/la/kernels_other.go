//go:build !amd64

package la

// No vector kernels on this GOARCH: vectorKernels is false, so Dot, dotPair
// and forwardSubst always run their scalar bodies and never reach these.

func haveVectorKernels() bool { return false }

func dotLanes(a, b *float64, n int, s *[4]float64) { panic("la: no vector kernel") }

func dotPairLanes(a, b0, b1 *float64, n int, s *[8]float64) { panic("la: no vector kernel") }

func dotRows4Lanes(r0, r1, r2, r3, b *float64, n int, s *[16]float64) {
	panic("la: no vector kernel")
}
