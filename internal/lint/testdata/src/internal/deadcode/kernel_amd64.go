package deadcode

// kernel's amd64 half needs no scalar body.
func kernel() int { return 4 }
