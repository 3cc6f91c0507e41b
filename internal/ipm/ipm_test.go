package ipm

import (
	"math"
	"testing"
	"testing/quick"
)

// funcCurve adapts plain functions to the Curve interface, with the
// derivative the Newton oracle uses (a central difference when df is nil).
type funcCurve struct {
	f  func(x float64) float64
	df func(x float64) float64
}

func (c funcCurve) Eval(x float64) float64 { return c.f(x) }
func (c funcCurve) Deriv(x float64) float64 {
	if c.df != nil {
		return c.df(x)
	}
	h := 1e-6 * (math.Abs(x) + 1)
	return (c.f(x+h) - c.f(x-h)) / (2 * h)
}

// linear returns E(x) = a*x + b.
func linear(a, b float64) Curve {
	return funcCurve{
		f:  func(x float64) float64 { return a*x + b },
		df: func(x float64) float64 { return a },
	}
}

// saturating returns a GPU-like curve: overhead + work/(peak*x/(x+k)).
func saturating(peak, k, work, overhead float64) Curve {
	return funcCurve{f: func(x float64) float64 {
		if x <= 0 {
			return overhead
		}
		occ := x / (x + k)
		return overhead + work*x/(peak*occ)
	}}
}

func checkSolution(t *testing.T, p Problem, res Result, tolTimes float64) {
	t.Helper()
	var sum float64
	for g, x := range res.X {
		if x < -1e-9 {
			t.Fatalf("negative block size x[%d] = %g", g, x)
		}
		sum += x
	}
	if math.Abs(sum-p.Total) > 1e-6*p.Total {
		t.Fatalf("sum of blocks = %g, want %g", sum, p.Total)
	}
	// Equal finish times for units with nonzero work.
	var times []float64
	for g, x := range res.X {
		if x > 1e-9*p.Total {
			times = append(times, p.Curves[g].Eval(x))
		}
	}
	if len(times) == 0 {
		t.Fatal("no unit received work")
	}
	lo, hi := times[0], times[0]
	for _, v := range times[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if (hi-lo)/hi > tolTimes {
		t.Fatalf("finish times spread too wide: %v (rel spread %g)", times, (hi-lo)/hi)
	}
}

func TestSolveTwoLinearCurves(t *testing.T) {
	// E1 = 1*x, E2 = 3*x over total 4: x1 = 3, x2 = 1, tau = 3.
	p := Problem{Curves: []Curve{linear(1, 0), linear(3, 0)}, Total: 4}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, res, 1e-4)
	if math.Abs(res.X[0]-3) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("got X = %v, want [3 1]", res.X)
	}
	if math.Abs(res.Tau-3) > 1e-2 {
		t.Errorf("got tau = %g, want 3", res.Tau)
	}
}

func TestSolveLinearWithOffsets(t *testing.T) {
	p := Problem{Curves: []Curve{linear(2, 0.5), linear(1, 0.1), linear(5, 1)}, Total: 100}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, res, 1e-3)
}

func TestSolveSaturatingGPUCurves(t *testing.T) {
	// Heterogeneous mix: two GPU-like saturating curves, two CPU-like
	// linear ones, resembling a 2-machine cluster.
	p := Problem{
		Curves: []Curve{
			saturating(3.5e12, 40000, 8.6e9, 1e-4),
			saturating(0.9e12, 5000, 8.6e9, 1.5e-4),
			linear(8.6e9/70e9, 4e-5),
			linear(8.6e9/25e9, 4e-5),
		},
		Total: 65536,
	}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, res, 1e-3)
	// The fast GPU must receive the largest share.
	for g := 1; g < 4; g++ {
		if res.X[0] <= res.X[g] {
			t.Errorf("fast GPU got %g, unit %d got %g", res.X[0], g, res.X[g])
		}
	}
}

func TestSolveSingleUnit(t *testing.T) {
	p := Problem{Curves: []Curve{linear(2, 1)}, Total: 10}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] != 10 {
		t.Errorf("single unit should take all work, got %g", res.X[0])
	}
	if math.Abs(res.Tau-21) > 1e-9 {
		t.Errorf("tau = %g, want 21", res.Tau)
	}
}

func TestSolveFailedDeviceExcluded(t *testing.T) {
	inf := funcCurve{f: func(x float64) float64 { return math.Inf(1) }}
	p := Problem{Curves: []Curve{linear(1, 0), inf, linear(1, 0)}, Total: 10}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[1] != 0 {
		t.Errorf("failed device received work: %g", res.X[1])
	}
	if math.Abs(res.X[0]-5) > 1e-2 || math.Abs(res.X[2]-5) > 1e-2 {
		t.Errorf("X = %v, want [5 0 5]", res.X)
	}
}

func TestSolveAllFailed(t *testing.T) {
	inf := funcCurve{f: func(x float64) float64 { return math.Inf(1) }}
	_, err := Solve(Problem{Curves: []Curve{inf, inf}, Total: 1}, Options{})
	if err == nil {
		t.Fatal("expected ErrInfeasible")
	}
}

// TestDeriv2NearZeroBound: on E(x) = x² the scaled curve is Ê(u) = u², so
// E″ = 2 everywhere — including within one difference step of u = 0, where
// the lower sample is clamped into the domain.
func TestDeriv2NearZeroBound(t *testing.T) {
	quad := funcCurve{
		f:  func(x float64) float64 { return x * x },
		df: func(x float64) float64 { return 2 * x },
	}
	sc, err := newScaled(Problem{Curves: []Curve{quad}, Total: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{1e-6, 0.5} {
		if d := deriv2(sc, 0, u); math.Abs(d-2) > 1e-6 {
			t.Errorf("deriv2 at u=%g = %g, want 2", u, d)
		}
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	if _, err := Solve(Problem{}, Options{}); err == nil {
		t.Fatal("expected error for empty problem")
	}
	if _, err := Solve(Problem{Curves: []Curve{linear(1, 0)}, Total: 0}, Options{}); err == nil {
		t.Fatal("expected error for zero total")
	}
}

// TestBisectionFallbackMatchesIPM: the water-filling solve matches the
// interior-point oracle on a benign two-unit problem.
func TestBisectionFallbackMatchesIPM(t *testing.T) {
	p := Problem{Curves: []Curve{linear(1, 0.2), linear(4, 0.1)}, Total: 50}
	ipmRes, err := solveNewton(p, newtonOptions{})
	if err != nil {
		t.Fatalf("IPM oracle failed: %v", err)
	}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("water-filling failed: %v", err)
	}
	for g := range ipmRes.X {
		if math.Abs(ipmRes.X[g]-res.X[g]) > 1e-2*p.Total {
			t.Errorf("unit %d: IPM %g vs water-filling %g", g, ipmRes.X[g], res.X[g])
		}
	}
}

// Property: for random positive linear curves the solver always returns a
// feasible, equal-time split. Offsets are kept below the achievable
// makespan so every unit stays active — a unit whose intercept exceeds the
// optimal τ legitimately receives (near-)zero work and its idle time is
// not part of the equal-time condition (Eq. 4 applies to units that
// process data).
func TestSolveProperty(t *testing.T) {
	f := func(seeds [4]uint8, totalSeed uint8) bool {
		var curves []Curve
		for _, s := range seeds {
			a := 0.1 + float64(s%50)/10 // slope in [0.1, 5.0]
			b := float64(s/50) / 20     // offset in [0, 0.25]
			curves = append(curves, linear(a, b))
		}
		total := 20.0 + float64(totalSeed)
		p := Problem{Curves: curves, Total: total}
		res, err := Solve(p, Options{})
		if err != nil {
			return false
		}
		var sum float64
		for _, x := range res.X {
			if x < -1e-9 || math.IsNaN(x) {
				return false
			}
			sum += x
		}
		if math.Abs(sum-total) > 1e-6*total {
			return false
		}
		// Times within 1%.
		var lo, hi float64 = math.Inf(1), 0
		for g, x := range res.X {
			if x <= 1e-9*total {
				continue
			}
			v := curves[g].Eval(x)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return (hi-lo)/hi < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
