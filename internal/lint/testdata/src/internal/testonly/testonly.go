// Package testonly is imported by no non-test file: it is test support, and
// the dead-code rule leaves it alone.
package testonly

func Helper() int { return 1 }
