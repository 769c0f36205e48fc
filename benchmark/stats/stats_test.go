package stats

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := Sorted([]float64{5, 1, 3, 2, 4})
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {-3, 1}, {101, 5},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
}

// The expected values are statistics.quantiles(data, n=4) from CPython.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 40, 80, 160}, 15, 40, 120},
	}
	for _, c := range cases {
		q1, q2, q3, ok := Quartiles(c.data)
		if !ok || math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v %v, want %v %v %v", c.data, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("one sample has no quartiles")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 2, 8, 6})
	if s.N != 4 || s.Min != 2 || s.Max != 8 || s.Median != 5 {
		t.Errorf("summary = %+v", s)
	}
	// quartiles of 2,4,6,8 are 2.5 and 7.5
	if math.Abs(s.Spread-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", s.Spread)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}
