// Package stats holds the small amount of order statistics the benchmark
// reports: percentiles of latency samples, min/median/max summaries of
// repetitions, and the quartile spread the regression bounds are derived
// from.
package stats

import (
	"math"
	"sort"
)

// Sorted returns an ascending copy of xs.
func Sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of an ascending
// slice by linear interpolation between closest ranks; NaN when empty.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean; NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Summary is the per-metric record every result file carries.
type Summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	// Spread is (Q3−Q1)/|median| with the quartiles of Quartiles; 0 when
	// fewer than two samples or a zero median.
	Spread float64 `json:"spread"`
}

// Summarize computes a Summary of xs (which it does not modify).
func Summarize(xs []float64) Summary {
	s := Sorted(xs)
	if len(s) == 0 {
		return Summary{}
	}
	out := Summary{N: len(s), Min: s[0], Median: Percentile(s, 50), Max: s[len(s)-1]}
	if q1, _, q3, ok := Quartiles(s); ok && out.Median != 0 {
		out.Spread = (q3 - q1) / math.Abs(out.Median)
	}
	return out
}

// Quartiles returns the three cut points of an ascending slice by the
// "exclusive" method (the one Python's statistics.quantiles(n=4) uses, so
// spreads printed here match the ones the acceptance procedure computes).
// ok is false with fewer than two samples.
func Quartiles(sorted []float64) (q1, q2, q3 float64, ok bool) {
	m := len(sorted)
	if m < 2 {
		return 0, 0, 0, false
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}
