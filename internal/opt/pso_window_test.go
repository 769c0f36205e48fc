package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sequentialPSO is the one-particle-at-a-time PSO loop as it stood before
// speculative windows, frozen as the oracle PSOBatch must match: every step
// sees the global best its predecessor left. clamps counts the
// reflect-clamp draws it takes.
func sequentialPSO(f Objective, dim int, params PSOParams, rng *rand.Rand) (res Result, clamps int) {
	params.defaults()
	np := params.Particles
	if extra := len(params.Seeds); extra > 0 && np < extra {
		np = extra
	}
	pos, vel, pBest := make([][]float64, np), make([][]float64, np), make([][]float64, np)
	pBestF := make([]float64, np)
	gBest, gBestF := make([]float64, dim), math.Inf(1)
	evals := 0
	for i := 0; i < np; i++ {
		if i < len(params.Seeds) {
			pos[i] = clip01(append([]float64(nil), params.Seeds[i]...))
		} else {
			pos[i] = randomPoint(dim, rng)
		}
		vel[i] = make([]float64, dim)
		for d := range vel[i] {
			vel[i][d] = (rng.Float64() - 0.5) * 0.2
		}
		pBest[i] = append([]float64(nil), pos[i]...)
		pBestF[i] = f(pos[i])
		evals++
		if pBestF[i] < gBestF {
			gBestF = pBestF[i]
			copy(gBest, pos[i])
		}
	}
	for iter := 0; iter < params.MaxIter; iter++ {
		for i := 0; i < np; i++ {
			for d := 0; d < dim; d++ {
				r1, r2 := rng.Float64(), rng.Float64()
				vel[i][d] = psoInertia*vel[i][d] +
					psoCognitive*r1*(pBest[i][d]-pos[i][d]) +
					psoSocial*r2*(gBest[d]-pos[i][d])
				pos[i][d] += vel[i][d]
				if pos[i][d] < 0 {
					pos[i][d] = -pos[i][d]
					vel[i][d] = -vel[i][d]
				}
				if pos[i][d] > 1 {
					pos[i][d] = 2 - pos[i][d]
					vel[i][d] = -vel[i][d]
				}
				if pos[i][d] < 0 || pos[i][d] > 1 {
					pos[i][d] = rng.Float64()
					clamps++
				}
			}
			fx := f(pos[i])
			evals++
			if fx < pBestF[i] {
				pBestF[i] = fx
				copy(pBest[i], pos[i])
				if fx < gBestF {
					gBestF = fx
					copy(gBest, pos[i])
				}
			}
		}
	}
	return Result{X: gBest, F: gBestF, Evals: evals}, clamps
}

// TestPSOBatchMatchesSequential: speculative windows walk the sequential
// swarm's trajectory exactly — the same X and F bits, the same committed
// evaluation count, and rng left at the same draw — across seeds, dimensions,
// swarm sizes on both sides of the window and with and without Seeds, on a
// rippled objective whose global best improves often. The corpus is counted
// to take the paths the argument rests on: windows cut short by a
// speculative step's clamp draw, and discards after an improving step.
func TestPSOBatchMatchesSequential(t *testing.T) {
	rippled := func(x []float64) float64 {
		s := 0.0
		for d, v := range x {
			c := 0.2 + 0.1*float64(d%5)
			s += (v-c)*(v-c) + 0.02*math.Sin(31*v+float64(d))
		}
		return s
	}
	var cut, discarded, clampDraws int
	for seed := int64(1); seed <= 6; seed++ {
		for _, dim := range []int{1, 3, 6} {
			for _, particles := range []int{1, 2, 3, 4, 5, 20} {
				for _, seeded := range []bool{false, true} {
					params := PSOParams{Particles: particles, MaxIter: 25}
					if seeded {
						// Opposite corners: the pulls toward them are large, so
						// steps overshoot both walls and take the clamp draw.
						lo, hi := make([]float64, dim), make([]float64, dim)
						for d := range hi {
							hi[d] = 1
						}
						params.Seeds = [][]float64{lo, hi}
					}
					name := fmt.Sprintf("seed=%d dim=%d particles=%d seeded=%v", seed, dim, particles, seeded)

					rngWant := rand.New(rand.NewSource(seed))
					want, clamps := sequentialPSO(rippled, dim, params, rngWant)
					clampDraws += clamps

					var calls [][]float64 // each call's scores
					rngGot := rand.New(rand.NewSource(seed))
					got := PSOBatch(func(xs [][]float64, out []float64) {
						for k, x := range xs {
							out[k] = rippled(x)
						}
						calls = append(calls, append([]float64(nil), out...))
					}, dim, params, rngGot)

					for d := range want.X {
						if math.Float64bits(got.X[d]) != math.Float64bits(want.X[d]) {
							t.Fatalf("%s: X[%d] = %v, sequential %v", name, d, got.X[d], want.X[d])
						}
					}
					if math.Float64bits(got.F) != math.Float64bits(want.F) || got.Evals != want.Evals {
						t.Fatalf("%s: F %v in %d evals, sequential %v in %d", name, got.F, got.Evals, want.F, want.Evals)
					}
					if g, w := rngGot.Int63(), rngWant.Int63(); g != w {
						t.Fatalf("%s: next draw after return %d, sequential %d", name, g, w)
					}
					if one := PSO(rippled, dim, params, rand.New(rand.NewSource(seed))); math.Float64bits(one.F) != math.Float64bits(want.F) || one.Evals != want.Evals {
						t.Fatalf("%s: PSO F %v in %d evals, sequential %v in %d", name, one.F, one.Evals, want.F, want.Evals)
					}

					// Replay the commits: a step improves the global best iff it
					// beats every committed score; the rest of its window is
					// discarded. A window with no discard that is shorter than
					// the window size yet not the run's last was cut by a clamp.
					np := max(particles, len(params.Seeds))
					size, steps := min(psoWindow, np), params.MaxIter*np
					best := math.Inf(1)
					for _, fx := range calls[0] {
						best = math.Min(best, fx)
					}
					committed := 0
					for _, window := range calls[1:] {
						k := 0
						for ; k < len(window); k++ {
							committed++
							if window[k] < best {
								best = window[k]
								if k+1 < len(window) {
									discarded += len(window) - k - 1
									break
								}
							}
						}
						if k == len(window) && len(window) < size && committed < steps {
							cut++
						}
					}
					if evals := np + committed; evals != got.Evals {
						t.Fatalf("%s: replay committed %d evaluations, PSOBatch reports %d", name, evals, got.Evals)
					}
				}
			}
		}
	}
	t.Logf("%d clamp draws in the sequential walks, %d windows cut by one, %d speculative evaluations discarded", clampDraws, cut, discarded)
	if cut == 0 || discarded == 0 {
		t.Fatalf("corpus took %d clamp cuts and %d discards; it must take both paths", cut, discarded)
	}
}
