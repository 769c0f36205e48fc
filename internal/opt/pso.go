package opt

import (
	"math"
	"math/rand"
)

// PSOParams configures the particle swarm optimizer.
type PSOParams struct {
	Particles int // swarm size (default 20)
	MaxIter   int // iterations (default 50)
	// Seeds are optional initial positions included in the swarm (e.g. the
	// incumbent best sample, per standard EGO practice).
	Seeds [][]float64
}

// The constriction coefficients of Clerc & Kennedy: velocity inertia ω and
// the personal-best and global-best pulls c1, c2.
const (
	psoInertia   = 0.729
	psoCognitive = 1.49445
	psoSocial    = 1.49445
)

// psoWindow is the most particle steps one PSOBatch window holds: enough
// points for a batched objective to share its work among, few enough that a
// step improving the global best rarely discards much.
const psoWindow = 4

func (p *PSOParams) defaults() {
	if p.Particles <= 0 {
		p.Particles = 20
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 50
	}
}

// PSO minimizes f over [0,1]^dim with global-best particle swarm
// optimization. GPTune's search phase maximizes the EI acquisition with PSO
// (paper Section 3.1); callers pass f = -EI. It is PSOBatch scoring one
// point per call.
func PSO(f Objective, dim int, params PSOParams, rng *rand.Rand) Result {
	return pso(func(xs [][]float64, out []float64) {
		for k, x := range xs {
			out[k] = f(x)
		}
	}, 1, dim, params, rng)
}

// PSOBatch is PSO for an objective that scores several points per call more
// cheaply than one at a time. It returns PSO's Result bit for bit, with rng
// left where PSO leaves it; f sees the initial swarm in one call, then
// speculative windows of up to four particle steps. A window computes
// consecutive steps (crossing into the next iteration) against the global
// best as it stands, and commits them in order; a step that improves the
// global best discards the rest of its window, which is re-formed from the
// next step against the new best. Result.Evals counts committed evaluations
// only; f also scores the discarded ones.
func PSOBatch(f BatchObjective, dim int, params PSOParams, rng *rand.Rand) Result {
	return pso(f, psoWindow, dim, params, rng)
}

// pso is the one swarm body behind PSO and PSOBatch: window is the most
// particle steps one call of f scores.
//
// Why windows cannot drift from the one-step-at-a-time walk: a step reads
// the particle's own state, the global best and rng draws, and writes only
// the particle. Within a window every particle is distinct (window ≤
// swarm size), so a step's own state is current; the global best is the
// committed one until a commit improves it, and then every later step of the
// window is discarded. Draws go through a tape: each step records the values
// it takes, and a discard rewinds the tape to the first discarded step, whose
// re-formed successor consumes the same values in the same order. Only a
// window's first step may take the reflect-clamp draw; a later step that
// would need it ends the window before itself instead. So every recorded
// value belongs to a step that will consume at least as many — a speculative
// step records exactly two per dimension, the fewest any step takes — and
// when the last step commits the tape is empty and rng is exactly where the
// sequential walk leaves it.
func pso(f BatchObjective, window, dim int, params PSOParams, rng *rand.Rand) Result {
	params.defaults()
	np := params.Particles
	if extra := len(params.Seeds); extra > 0 && np < extra {
		np = extra
	}
	window = min(window, np)

	pos := make([][]float64, np)
	vel := make([][]float64, np)
	pBest := make([][]float64, np)
	pBestF := make([]float64, np)

	gBest := make([]float64, dim)
	gBestF := math.Inf(1)

	// The initial swarm's positions never depend on f: one call scores it.
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
	}
	f(pos, pBestF)
	evals := np
	for i, fx := range pBestF {
		if fx < gBestF {
			gBestF = fx
			copy(gBest, pos[i])
		}
	}

	tape := drawTape{rng: rng, vals: make([]float64, 0, (2*window+1)*dim)}
	// step proposes particle i's move into p and v. A speculative step that
	// would take the clamp draw reports false; the caller rewinds its draws.
	step := func(i int, p, v []float64, speculative bool) bool {
		for d := 0; d < dim; d++ {
			r1, r2 := tape.next(), tape.next()
			v[d] = psoInertia*vel[i][d] +
				psoCognitive*r1*(pBest[i][d]-pos[i][d]) +
				psoSocial*r2*(gBest[d]-pos[i][d])
			p[d] = pos[i][d] + v[d]
			// Reflecting bounds keep particles exploring the interior.
			if p[d] < 0 {
				p[d] = -p[d]
				v[d] = -v[d]
			}
			if p[d] > 1 {
				p[d] = 2 - p[d]
				v[d] = -v[d]
			}
			if p[d] < 0 || p[d] > 1 { // huge velocity: clamp
				if speculative {
					return false
				}
				p[d] = tape.next()
			}
		}
		return true
	}

	newPos, newVel := make([][]float64, window), make([][]float64, window)
	for k := range newPos {
		newPos[k], newVel[k] = make([]float64, dim), make([]float64, dim)
	}
	fx := make([]float64, window)
	marks := make([]int, window) // tape position at the start of each step
	steps := params.MaxIter * np
	for next := 0; next < steps; {
		tape.compact()
		w := 0
		for ; w < window && next+w < steps; w++ {
			marks[w] = tape.pos
			if !step((next+w)%np, newPos[w], newVel[w], w > 0) {
				tape.pos = marks[w]
				break
			}
		}
		f(newPos[:w], fx[:w])
		for k := 0; k < w; k++ {
			i := (next + k) % np
			copy(pos[i], newPos[k])
			copy(vel[i], newVel[k])
			evals++
			improved := false
			if fx[k] < pBestF[i] {
				pBestF[i] = fx[k]
				copy(pBest[i], pos[i])
				if fx[k] < gBestF {
					gBestF = fx[k]
					copy(gBest, pos[i])
					improved = true
				}
			}
			if improved && k+1 < w {
				tape.pos = marks[k+1]
				w = k + 1
			}
		}
		next += w
	}
	return Result{X: gBest, F: gBestF, Evals: evals}
}

// drawTape records the rng.Float64 values speculative PSO steps take, so a
// discarded step's draws are replayed, in order, by the steps that replace
// it.
type drawTape struct {
	rng  *rand.Rand
	vals []float64 // recorded draws; vals[pos:] are not yet consumed
	pos  int
}

func (t *drawTape) next() float64 {
	if t.pos == len(t.vals) {
		t.vals = append(t.vals, t.rng.Float64())
	}
	t.pos++
	return t.vals[t.pos-1]
}

// compact drops the consumed draws.
func (t *drawTape) compact() {
	t.vals = t.vals[:copy(t.vals, t.vals[t.pos:])]
	t.pos = 0
}
