package ipm

import (
	"errors"
	"math"
	"testing"
)

// Classification coverage: corrupted inputs and pathological curves must
// surface typed errors (never garbage distributions), because the
// scheduler's degradation ladder branches on them.

func TestSolveNonFiniteTotal(t *testing.T) {
	for _, total := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Solve(Problem{Curves: []Curve{linear(1, 0), linear(2, 0)}, Total: total}, Options{})
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("Solve(total=%g) = %v, want ErrNonFinite", total, err)
		}
	}
}

// TestSolveClassifiedOnPoisonedCurve: a curve that is finite at the even
// split (so it survives the failed-device partition) but NaN elsewhere must
// yield a finite distribution or a classified error — never a NaN-laced
// distribution.
func TestSolveClassifiedOnPoisonedCurve(t *testing.T) {
	even := 100.0 / 2
	poison := funcCurve{f: func(x float64) float64 {
		if math.Abs(x-even) < 1e-9 {
			return even
		}
		return math.NaN()
	}, df: func(float64) float64 { return 1 }}
	res, err := Solve(Problem{Curves: []Curve{poison, linear(1, 0)}, Total: 100}, Options{})
	if err == nil {
		for _, x := range res.X {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("solver returned non-finite block size %g without error", x)
			}
		}
		return
	}
	if !(errors.Is(err, ErrNonFinite) || errors.Is(err, ErrInfeasible)) {
		t.Errorf("unclassified solver error: %v", err)
	}
}

// TestSolveNoConvergeClassified: a step-function curve with a derivative
// that lies (zero slope everywhere) starves Newton of progress, so the
// interior-point oracle fails with one of its typed errors, while the
// water-filling solve, which never reads a derivative, still returns a
// split that sums to Total with each unit within one step of the common τ.
func TestSolveNoConvergeClassified(t *testing.T) {
	liar := funcCurve{
		f:  func(x float64) float64 { return math.Floor(x/10) * 1e6 },
		df: func(float64) float64 { return 0 },
	}
	p := Problem{Curves: []Curve{liar, liar}, Total: 100}
	if _, err := solveNewton(p, newtonOptions{MaxIter: 5}); err != nil &&
		!(errors.Is(err, ErrNonFinite) || errors.Is(err, errNoProgress) ||
			errors.Is(err, errNoConverge) || errors.Is(err, errIllConditioned)) {
		t.Errorf("unclassified oracle error: %v", err)
	}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]+res.X[1]-100) > 1e-9 {
		t.Errorf("split %v does not sum to 100", res.X)
	}
	for g, x := range res.X {
		if e := liar.Eval(x); e > res.Tau {
			t.Errorf("unit %d finishes at %g, after τ = %g", g, e, res.Tau)
		}
	}
}

// TestValidResultGuards: the final contract check rejects non-finite,
// negative and mis-summing distributions.
func TestValidResultGuards(t *testing.T) {
	cases := []struct {
		name string
		res  Result
		ok   bool
	}{
		{"good", Result{X: []float64{40, 60}, Tau: 1}, true},
		{"nan block", Result{X: []float64{math.NaN(), 100}, Tau: 1}, false},
		{"inf block", Result{X: []float64{math.Inf(1), 0}, Tau: 1}, false},
		{"negative block", Result{X: []float64{-5, 105}, Tau: 1}, false},
		{"bad sum", Result{X: []float64{10, 20}, Tau: 1}, false},
		{"nan tau", Result{X: []float64{40, 60}, Tau: math.NaN()}, false},
	}
	for _, c := range cases {
		err := validResult(c.res, 100)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: invalid result accepted", c.name)
			} else if !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s: error not classified ErrNonFinite: %v", c.name, err)
			}
		}
	}
}
