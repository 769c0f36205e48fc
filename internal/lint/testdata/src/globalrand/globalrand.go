// Package globalrand exercises R1 (no-global-rand): package-level
// math/rand calls draw from the shared global source and are forbidden,
// and so is building a generator outside the stream owners (rngok plays
// internal/rng); a *rand.Rand handed in is the approved pattern.
package globalrand

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Bad draws from the process-global source.
func Bad() int {
	return rand.Intn(10) // want "no-global-rand: call to global math/rand.Intn"
}

// BadFloat hits two more global entry points.
func BadFloat() float64 {
	rand.Shuffle(3, func(i, j int) {}) // want "no-global-rand: call to global math/rand.Shuffle"
	return rand.Float64()              // want "no-global-rand: call to global math/rand.Float64"
}

// BadConstructor derives its own stream instead of asking the owner.
func BadConstructor(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // want "no-global-rand: call to math/rand.New outside internal/rng" "no-global-rand: call to math/rand.NewSource outside internal/rng"
	return rng.Intn(10)
}

// BadPCG builds a math/rand/v2 source outside the owner.
func BadPCG(seed uint64) uint64 {
	return randv2.NewPCG(seed, 1).Uint64() // want "no-global-rand: call to math/rand/v2.NewPCG outside internal/rng"
}

// Good threads an injected generator; its methods, and a Zipf drawing
// from it, are clean.
func Good(rng *rand.Rand) uint64 {
	return rng.Uint64() + rand.NewZipf(rng, 2, 1, 10).Uint64()
}
