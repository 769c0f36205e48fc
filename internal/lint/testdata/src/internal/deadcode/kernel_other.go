//go:build !amd64

package deadcode

func kernel() int { return scalarKernel() }
