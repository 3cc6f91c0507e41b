package fit

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func apply(xs []float64, f func(float64) float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	return ys
}

func TestFitLinearExact(t *testing.T) {
	xs := linspace(1, 100, 10)
	ys := apply(xs, func(x float64) float64 { return 3*x + 2 })
	m, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A1-3) > 1e-9 || math.Abs(m.A2-2) > 1e-8 {
		t.Errorf("fit = %gx + %g, want 3x + 2", m.A1, m.A2)
	}
	if m.R2 < 0.9999 {
		t.Errorf("R² = %g on exact data", m.R2)
	}
}

func TestFitLinearFloor(t *testing.T) {
	// Negative intercept: evaluation must floor at 0 for tiny x.
	l := Linear{A1: 1, A2: -10}
	if l.Eval(5) != 0 {
		t.Errorf("Eval(5) = %g, want 0 (floored)", l.Eval(5))
	}
	if l.Eval(20) != 10 {
		t.Errorf("Eval(20) = %g, want 10", l.Eval(20))
	}
}

func TestFitSamplesRecoversLinear(t *testing.T) {
	xs := []float64{8, 16, 32, 64}
	ys := apply(xs, func(x float64) float64 { return 0.002*x + 0.0001 })
	m, err := FitSamples(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction far outside the sample range must stay near-linear.
	want := 0.002*10000 + 0.0001
	if got := m.Eval(10000); math.Abs(got-want)/want > 0.05 {
		t.Errorf("extrapolated Eval(10000) = %g, want ≈%g", got, want)
	}
}

func TestFitSamplesRecoversLogShape(t *testing.T) {
	// Geometric sampling, like the scheduler's probing rounds, so the log
	// bend at small x is actually observed.
	var xs []float64
	for x := 4.0; x <= 4096; x *= 2 {
		xs = append(xs, x)
	}
	ys := apply(xs, func(x float64) float64 { return 0.01*x + 0.5*math.Log(x) })
	m, err := FitSamplesOver(xs, ys, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if m.R2 < 0.999 {
		t.Errorf("R² = %g for log-shaped data", m.R2)
	}
	for _, x := range []float64{10, 100, 5000} {
		want := 0.01*x + 0.5*math.Log(x)
		if got := m.Eval(x); math.Abs(got-want)/want > 0.10 {
			t.Errorf("Eval(%g) = %g, want ≈%g", x, got, want)
		}
	}
}

func TestFitSamplesSaturatingCurveExtrapolation(t *testing.T) {
	// GPU-like saturating per-unit rate: t(x) = x(H+x)/(fH+x)·c.
	truth := func(x float64) float64 {
		const c, h, f = 0.001, 150, 0.22
		return c * x * (h + x) / (f*h + x)
	}
	xs := []float64{8, 16, 32, 64, 128, 256}
	ys := apply(xs, truth)
	m, err := FitSamplesOver(xs, ys, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Extrapolation 80x beyond the samples must stay within a factor ~2.5
	// (this is the scenario that misled the solver before the horizon and
	// parsimony guards).
	got, want := m.Eval(20000), truth(20000)
	if got < want/2.5 || got > want*2.5 {
		t.Errorf("Eval(20000) = %g, truth %g — extrapolation out of bounds", got, want)
	}
	// And it must be monotone over the horizon.
	if !m.MonotoneNonDecreasing(8, 20000) {
		t.Errorf("selected model is not monotone: %v", m)
	}
}

func TestFitSamplesErrors(t *testing.T) {
	if _, err := FitSamples([]float64{1}, []float64{1}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("want ErrTooFewPoints, got %v", err)
	}
	if _, err := FitSamples([]float64{1, 2}, []float64{1}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("mismatched lengths: want ErrTooFewPoints, got %v", err)
	}
	if _, err := FitSamples([]float64{5, 5, 5}, []float64{1, 2, 3}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("all-equal x: want ErrDegenerate, got %v", err)
	}
}

func TestFitSamplesTwoPointsFallsBackToLine(t *testing.T) {
	m, err := FitSamples([]float64{10, 20}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Eval(30); math.Abs(got-3) > 1e-9 {
		t.Errorf("two-point line Eval(30) = %g, want 3", got)
	}
}

func TestFitConstantData(t *testing.T) {
	// All-zero transfer times (live engine): fit should succeed with R²=1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{0, 0, 0, 0, 0}
	l, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if l.Eval(100) != 0 {
		t.Errorf("zero data fit Eval = %g", l.Eval(100))
	}
	if l.R2 != 1 {
		t.Errorf("R² = %g on perfectly fit constant data", l.R2)
	}
}

func TestFitLogCurve(t *testing.T) {
	xs := linspace(2, 2000, 15)
	ys := apply(xs, func(x float64) float64 { return 5 + 2*math.Log(x) })
	m, err := FitLogCurve(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Eval(500); math.Abs(got-(5+2*math.Log(500))) > 0.01 {
		t.Errorf("log fit Eval(500) = %g", got)
	}
}

func TestModelString(t *testing.T) {
	m, err := FitSamples([]float64{1, 2, 3, 4, 5, 6}, []float64{2, 4, 6, 8, 10, 12})
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if !strings.Contains(s, "R²") {
		t.Errorf("String = %q", s)
	}
}

func TestModelDeriv(t *testing.T) {
	xs := linspace(1, 100, 10)
	ys := apply(xs, func(x float64) float64 { return 4 * x })
	m, err := FitSamples(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Slope(50); math.Abs(got-4) > 1e-4 {
		t.Errorf("Slope = %g, want 4", got)
	}
}

// Property: fitting noise-free data from any positive line recovers it with
// R² ≈ 1 and accurate extrapolation.
func TestFitLinearProperty(t *testing.T) {
	f := func(a8, b8 uint8) bool {
		a := float64(a8)/16 + 0.05
		b := float64(b8) / 8
		xs := linspace(2, 500, 8)
		ys := apply(xs, func(x float64) float64 { return a*x + b })
		m, err := FitSamplesOver(xs, ys, 5000)
		if err != nil {
			return false
		}
		want := a*5000 + b
		got := m.Eval(5000)
		return m.R2 > 0.999 && math.Abs(got-want)/want < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Regression: a sample at x=0 must not poison the {1, x, 1/x} candidate.
// The old absolute 1e-9 clamp evaluated 1/x to 1e9 at x=0, wrecking the
// normal-equations conditioning; the floor is now relative to the fitting
// scale, so the basis value stays the same order as the other columns.
func TestInvBasisClampAtZero(t *testing.T) {
	const s = 64.0
	if v := basisInv.Eval(0, s); v > 1/(s*1e-3)+1e-9 {
		t.Fatalf("basisInv.Eval(0, %g) = %g, want ≤ %g (scale-relative clamp)", s, v, 1/(s*1e-3))
	}

	// Fit the inv candidate directly on a line sampled from x=0.
	xs := []float64{0, 4, 8, 16, 32, 64}
	ys := apply(xs, func(x float64) float64 { return 2 + 3*x })
	m, err := fitBasis([]Basis{basisOne, basisX, basisInv}, xs, ys, s)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range m.Coef {
		if math.Abs(c) > 1e6 {
			t.Errorf("coef[%d] = %g, conditioning blown", i, c)
		}
	}
	if got := m.Eval(0); math.Abs(got-2) > 0.5 {
		t.Errorf("Eval(0) = %g, want ≈2", got)
	}

	// And through the public selector, which tries every candidate set.
	m, err = FitSamples(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Eval(0); math.Abs(got-2) > 0.2 {
		t.Errorf("selected model Eval(0) = %g, want ≈2", got)
	}
	if got := m.Eval(48); math.Abs(got-(2+3*48)) > 1 {
		t.Errorf("selected model Eval(48) = %g, want ≈%g", got, 2+3*48.0)
	}
}
