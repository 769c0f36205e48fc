//go:build !amd64

package platform

func kernel(x *float64, n int, lanes *[4]float64) {
	for i := 0; i < n; i++ {
		lanes[i&3] += *x
	}
}
