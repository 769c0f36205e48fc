package mhd

import (
	"testing"

	"repro/internal/sparse"
)

// defaultConfig returns SuperLU-like defaults.
func defaultConfig() Config {
	return Config{RowPerm: 1, ColPerm: sparse.MinDegree, Pr: 4, NSup: 128, NRel: 20, Nxbl: 1, Nybl: 1}
}

// configToVector converts a Config to a's native tuning vector.
func configToVector(a *App, c Config) []float64 {
	v := []float64{float64(c.RowPerm), float64(c.ColPerm), float64(c.Pr), float64(c.NSup), float64(c.NRel)}
	if a.Variant == NIMROD {
		v = append(v, float64(c.Nxbl), float64(c.Nybl))
	}
	return v
}

func TestRuntimeLinearInSteps(t *testing.T) {
	a := New(M3DC1)
	cfg := defaultConfig()
	t1 := a.Runtime(1, cfg)
	t3 := a.Runtime(3, cfg)
	t9 := a.Runtime(9, cfg)
	if t1 <= 0 {
		t.Fatalf("nonpositive runtime")
	}
	// (t9 - t3) should be ≈ 3 × (t3 - t1): per-step cost is constant.
	d1 := t3 - t1
	d2 := t9 - t3
	if d1 <= 0 || d2 <= 0 {
		t.Fatalf("steps not increasing cost: %v %v", d1, d2)
	}
	ratio := d2 / d1
	if ratio < 2.9 || ratio > 3.1 {
		t.Fatalf("per-step cost not constant: ratio %v", ratio)
	}
}

func TestRowPermMatters(t *testing.T) {
	a := New(M3DC1)
	good := defaultConfig()
	bad := good
	bad.RowPerm = 0
	if a.StepCost(bad) <= a.StepCost(good) {
		t.Fatalf("NOROWPERM not slower than LargeDiag")
	}
}

func TestNimrodBlockSizesHaveInteriorOptimum(t *testing.T) {
	a := New(NIMROD)
	cfg := defaultConfig()
	at := func(bx, by int) float64 {
		c := cfg
		c.Nxbl, c.Nybl = bx, by
		return a.StepCost(c)
	}
	tiny := at(1, 1)
	mid := at(3, 3)
	huge := at(8, 8)
	if mid >= tiny || mid >= huge {
		t.Fatalf("no interior optimum: tiny=%v mid=%v huge=%v", tiny, mid, huge)
	}
	// M3D_C1 must ignore block sizes entirely.
	m := New(M3DC1)
	c1 := defaultConfig()
	c2 := c1
	c2.Nxbl, c2.Nybl = 7, 7
	if m.StepCost(c1) != m.StepCost(c2) {
		t.Fatalf("M3D_C1 affected by NIMROD-only parameters")
	}
}

func TestProblemShapes(t *testing.T) {
	m := New(M3DC1)
	pm := m.Problem()
	if err := pm.Validate(); err != nil {
		t.Fatal(err)
	}
	if pm.Tuning.Dim() != 5 {
		t.Fatalf("M3D_C1 β = %d, want 5", pm.Tuning.Dim())
	}
	n := New(NIMROD)
	pn := n.Problem()
	if pn.Tuning.Dim() != 7 {
		t.Fatalf("NIMROD β = %d, want 7", pn.Tuning.Dim())
	}
	y, err := pm.Objective([]float64{3}, configToVector(m, defaultConfig()))
	if err != nil || y[0] <= 0 {
		t.Fatalf("objective: %v %v", y, err)
	}
	y2, err := pn.Objective([]float64{15}, configToVector(n, defaultConfig()))
	if err != nil || y2[0] <= 0 {
		t.Fatalf("nimrod objective: %v %v", y2, err)
	}
}

func TestColPermAffectsStepCost(t *testing.T) {
	a := New(M3DC1)
	cfg := defaultConfig()
	cfg.ColPerm = sparse.MinDegree
	md := a.StepCost(cfg)
	cfg.ColPerm = sparse.RandomOrder
	random := a.StepCost(cfg)
	if md == random {
		t.Fatalf("COLPERM has no effect")
	}
}

func TestVariantsDiffer(t *testing.T) {
	m := New(M3DC1)
	n := New(NIMROD)
	if m.P == n.P {
		t.Fatalf("variants share process count")
	}
	if m.Name() == n.Name() {
		t.Fatalf("variants share name")
	}
}
