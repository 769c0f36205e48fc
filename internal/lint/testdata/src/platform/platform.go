// Package platform exercises the loader's build-constraint filter and the
// hotpath-alloc walk over body-less declarations: kernel is declared twice,
// in kernel_amd64.go (assembly-backed, no body) and in kernel_other.go
// (//go:build !amd64). Loading both would be a redeclaration; loading
// exactly one must type-check and report nothing.
package platform

// Sum calls the platform kernel with a stack array, as internal/la's lane
// kernels are called: clean on either half of the twin.
//
//gptlint:hotpath
func Sum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var lanes [4]float64
	kernel(&xs[0], len(xs), &lanes)
	return (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}
