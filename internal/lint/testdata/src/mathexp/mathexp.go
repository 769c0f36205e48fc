// Package mathexp exercises R12 (no-math-exp): the math functions whose
// amd64 body reaches exp_amd64.s return bits that depend on the CPU's FMA,
// so the numeric core neither calls nor passes them.
package mathexp

import "math"

// Bad calls two of them directly.
func Bad(x, y float64) float64 {
	return math.Exp(x) + math.Pow(x, y) // want "no-math-exp: math.Exp reaches exp_amd64.s" "no-math-exp: math.Pow reaches exp_amd64.s"
}

// BadValue hands one out as a function value.
func BadValue() func(float64) float64 {
	return math.Erfc // want "no-math-exp: math.Erfc reaches exp_amd64.s"
}

// Good uses math functions with one body on every machine, and a local
// function that happens to be called Exp.
func Good(x float64) float64 {
	return math.Log(x) + math.Sqrt(x) + math.Abs(x) + Exp(x)
}

// Exp is not math.Exp.
func Exp(x float64) float64 { return 1 + x }
