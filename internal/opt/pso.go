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
// (paper Section 3.1); callers pass f = -EI.
func PSO(f Objective, dim int, params PSOParams, rng *rand.Rand) Result {
	params.defaults()
	np := params.Particles
	if extra := len(params.Seeds); extra > 0 && np < extra {
		np = extra
	}

	pos := make([][]float64, np)
	vel := make([][]float64, np)
	pBest := make([][]float64, np)
	pBestF := make([]float64, np)
	evals := 0

	gBest := make([]float64, dim)
	gBestF := math.Inf(1)

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
				// Reflecting bounds keep particles exploring the interior.
				if pos[i][d] < 0 {
					pos[i][d] = -pos[i][d]
					vel[i][d] = -vel[i][d]
				}
				if pos[i][d] > 1 {
					pos[i][d] = 2 - pos[i][d]
					vel[i][d] = -vel[i][d]
				}
				if pos[i][d] < 0 || pos[i][d] > 1 { // huge velocity: clamp
					pos[i][d] = rng.Float64()
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
	return Result{X: gBest, F: gBestF, Evals: evals}
}
