package gp

import (
	"errors"
	"math"

	"repro/internal/la"
)

// LOODiagnostics holds leave-one-out cross-validation results for a fitted
// LCM: for each training sample, the posterior prediction the model would
// have made had that sample been left out. These come in closed form from
// the precision matrix (Sundararajan & Keerthi 2001):
//
//	μ_i^loo = y_i − α_i / K⁻¹_ii,   σ²_i^loo = 1 / K⁻¹_ii
//
// in the standardized-output space of the model.
type LOODiagnostics struct {
	Mean     []float64 // LOO predictive means (original units)
	Variance []float64 // LOO predictive variances (original units²)
	// StdResiduals are (y_i − μ_i^loo)/σ_i^loo; for a well-calibrated model
	// these are approximately standard normal.
	StdResiduals []float64
	// LogPseudoLikelihood is Σ log N(y_i; μ_i^loo, σ²_i^loo), a model
	// selection criterion robust to prior misspecification.
	LogPseudoLikelihood float64
	// RMSE is the root-mean-square LOO prediction error (original units).
	RMSE float64
}

// LeaveOneOut computes closed-form LOO diagnostics for the fitted model.
func (m *LCM) LeaveOneOut() (*LOODiagnostics, error) {
	if m.chol == nil {
		return nil, errors.New("gp: LeaveOneOut on unfitted model")
	}
	n := len(m.flatX)
	diag := la.CholInverseDiag(m.chol, 1) // K⁻¹_ii
	d := &LOODiagnostics{
		Mean:         make([]float64, n),
		Variance:     make([]float64, n),
		StdResiduals: make([]float64, n),
	}
	var sse float64
	for i := 0; i < n; i++ {
		prec := diag[i]
		if prec <= 0 {
			return nil, errors.New("gp: non-positive LOO precision (ill-conditioned fit)")
		}
		// Standardized-space quantities.
		yStd := m.yNorm[i]
		looMuStd := yStd - m.alpha[i]/prec
		looVarStd := 1 / prec

		mu := looMuStd*m.yStd + m.yMean
		variance := looVarStd * m.yStd * m.yStd
		yObs := yStd*m.yStd + m.yMean

		d.Mean[i] = mu
		d.Variance[i] = variance
		resid := yObs - mu
		sse += resid * resid
		sd := math.Sqrt(variance)
		d.StdResiduals[i] = resid / sd
		d.LogPseudoLikelihood += -0.5*math.Log(2*math.Pi*variance) - resid*resid/(2*variance)
	}
	d.RMSE = math.Sqrt(sse / float64(n))
	return d, nil
}
