package deadcode

// scalarKernel is called only from kernel_other.go: on amd64 the file is
// left out of the build, and its references still count, by name.
func scalarKernel() int { return 4 }
