package platform

// kernel is implemented in assembly (the .s file is not part of the corpus:
// the loader reads only Go source).
//
//go:noescape
func kernel(x *float64, n int, lanes *[4]float64)
