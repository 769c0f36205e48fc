package gp

import (
	"math"
	"sort"

	"repro/internal/opt"
)

// The fit's race (see FitLCM): every start runs to iteration rung1Iter, the
// best rung1Keep go on to rung2Iter, the best rung2Keep of those to MaxIter.
// Measured over 60 default tuning runs (analytical, recsys, gemm × 20 seeds),
// these two rungs spend 0.4 of the likelihood evaluations of running all
// four starts out and leave final regret and evaluations-to-5 % where they
// were; a single start cut at 10 iterations does not.
const (
	rung1Iter, rung1Keep = 10, 2
	rung2Iter, rung2Keep = 40, 1
)

// raceStarts advances runs to maxIter in rounds, dropping the starts that
// trail at each rung, and returns the winner's index (-1 when every start
// failed). round(alive, until) must advance each run in alive to iteration
// until; alive is in start order. A rung at or past maxIter is no rung, and
// neither is one that could not drop anybody: one or two starts run in a
// single round, as they did before there was a race.
func raceStarts(runs []*opt.LBFGSRun, maxIter int, round func(alive []int, until int)) int {
	alive := make([]int, len(runs))
	for s := range alive {
		alive[s] = s
	}
	for _, rung := range [...]struct{ iter, keep int }{{rung1Iter, rung1Keep}, {rung2Iter, rung2Keep}} {
		if rung.iter >= maxIter {
			break
		}
		if len(alive) <= rung.keep {
			continue // nobody to drop: no reason to make the starts wait for each other here
		}
		round(alive, rung.iter)
		alive = rankStarts(runs, alive)[:rung.keep]
		sort.Ints(alive)
	}
	round(alive, maxIter)
	if best := rankStarts(runs, alive)[0]; !failedStart(runs[best].Result().F) {
		return best
	}
	return -1
}

// rankStarts returns the starts in alive best first: smaller objective value
// first, equal values by start index, failed starts (failedStart) last.
func rankStarts(runs []*opt.LBFGSRun, alive []int) []int {
	ranked := append([]int(nil), alive...)
	sort.Slice(ranked, func(a, b int) bool {
		sa, sb := ranked[a], ranked[b]
		fa, fb := runs[sa].Result().F, runs[sb].Result().F
		switch ba, bb := failedStart(fa), failedStart(fb); {
		case ba != bb:
			return bb
		case !ba && fa < fb:
			return true
		case !ba && fb < fa:
			return false
		}
		return sa < sb
	})
	return ranked
}

// failedStart reports whether objective value f marks a start that never
// found a factorizable covariance (or met NaN). Such a start has stopped for
// good: the minimizer does not step from a non-finite value.
func failedStart(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
