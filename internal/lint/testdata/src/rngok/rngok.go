// Package rngok plays internal/rng in the corpus: the stream owner may
// build generators.
package rngok

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// New is the owner's constructor.
func New(seed int64) *rand.Rand {
	_ = randv2.NewPCG(uint64(seed), 0)
	return rand.New(rand.NewSource(seed))
}
