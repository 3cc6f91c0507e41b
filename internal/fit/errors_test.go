package fit

import (
	"errors"
	"math"
	"testing"
)

// Non-finite samples — a chaos-corrupted profile stream — must classify as
// ErrNonFinite at the fitting boundary instead of poisoning the normal
// equations and every curve evaluated downstream.

func TestFitSamplesNonFinite(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := FitSamples(xs, []float64{1, 2, bad, 4}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("FitSamples(y contains %g) = %v, want ErrNonFinite", bad, err)
		}
		if _, err := FitSamples([]float64{1, bad, 3, 4}, []float64{1, 2, 3, 4}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("FitSamples(x contains %g) = %v, want ErrNonFinite", bad, err)
		}
	}
}

func TestFitLogCurveNonFinite(t *testing.T) {
	if _, err := FitLogCurve([]float64{1, 2, 3}, []float64{1, math.NaN(), 3}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("FitLogCurve with NaN sample = %v, want ErrNonFinite", err)
	}
}

func TestFitLinearNonFinite(t *testing.T) {
	if _, err := FitLinear([]float64{1, 2, 3}, []float64{1, 2, math.Inf(1)}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("FitLinear with Inf sample = %v, want ErrNonFinite", err)
	}
}

func TestFitterIncrementalNonFinite(t *testing.T) {
	var f Fitter
	ws := new(Workspace)
	if _, err := f.Fit(ws, []float64{1, 2, math.NaN()}, []float64{1, 2, 3}, 10); !errors.Is(err, ErrNonFinite) {
		t.Errorf("Fitter.Fit with NaN x = %v, want ErrNonFinite", err)
	}
	// The fitter must stay usable after rejecting corrupt input.
	if m, err := f.Fit(ws, []float64{1, 2, 4, 8}, []float64{2, 4, 8, 16}, 10); err != nil {
		t.Fatalf("fitter wedged after a rejected sample set: %v", err)
	} else if v := m.Eval(4); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("recovered fit evaluates non-finite: %g", v)
	}
}
