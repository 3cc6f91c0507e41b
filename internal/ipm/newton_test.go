package ipm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFilterAcceptance(t *testing.T) {
	f := &filterSet{}
	if !f.acceptable(1, 10) {
		t.Fatal("empty filter must accept anything finite")
	}
	f.add(1, 10)
	// Dominated in both coordinates (no sufficient decrease): rejected.
	if f.acceptable(1, 10) {
		t.Error("identical point should be rejected")
	}
	if f.acceptable(0.9999999, 9.9999999) {
		t.Error("insufficient improvement should be rejected")
	}
	// Better feasibility alone suffices.
	if !f.acceptable(0.5, 100) {
		t.Error("halved infeasibility should be accepted")
	}
	// Better objective alone suffices.
	if !f.acceptable(2, 5) {
		t.Error("clearly better objective should be accepted")
	}
	// NaN never accepted.
	if f.acceptable(math.NaN(), 0) || f.acceptable(0, math.NaN()) {
		t.Error("NaN accepted")
	}
}

func TestFilterPrunesDominated(t *testing.T) {
	f := &filterSet{}
	f.add(2, 20)
	f.add(3, 30)
	// (1,10) dominates both — they must be pruned.
	f.add(1, 10)
	if len(f.entries) != 1 {
		t.Errorf("filter kept %d entries, want 1", len(f.entries))
	}
	f.reset()
	if len(f.entries) != 0 {
		t.Error("reset did not clear the filter")
	}
}

func TestMaxStepFractionToBoundary(t *testing.T) {
	v := []float64{1, 1}
	// Step pushing the first coordinate to zero: alpha limited to ~0.995.
	a := maxStep(v, []float64{-1, 0}, 0.995)
	if math.Abs(a-0.995) > 1e-12 {
		t.Errorf("alpha = %g, want 0.995", a)
	}
	// Positive steps unconstrained.
	if a := maxStep(v, []float64{5, 5}, 0.995); a != 1 {
		t.Errorf("alpha = %g, want 1", a)
	}
	// Tiny component with steep negative step dominates.
	a = maxStep([]float64{1e-6, 1}, []float64{-1, -0.1}, 0.995)
	if a > 1e-5 {
		t.Errorf("alpha = %g, want ≈ 9.95e-7", a)
	}
}

// TestSolveConvexQuadraticCurves: E_g(x) = a·x + b·x² (convex, monotone).
func TestSolveConvexQuadraticCurves(t *testing.T) {
	q := func(a, b float64) Curve {
		return funcCurve{
			f:  func(x float64) float64 { return a*x + b*x*x },
			df: func(x float64) float64 { return a + 2*b*x },
		}
	}
	p := Problem{Curves: []Curve{q(1, 0.001), q(2, 0.0005), q(0.5, 0.002)}, Total: 300}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, res, 1e-3)
}

// TestSolveManyUnits stresses the KKT assembly at n = 16 (the dual-GPU
// cluster has 10 units; 16 covers headroom).
func TestSolveManyUnits(t *testing.T) {
	var curves []Curve
	for g := 0; g < 16; g++ {
		rate := 0.001 * math.Pow(1.6, float64(g))
		curves = append(curves, linear(rate, 0.01))
	}
	p := Problem{Curves: curves, Total: 1e5}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, res, 1e-3)
	// Fastest unit (lowest rate) gets the most work.
	for g := 1; g < 16; g++ {
		if res.X[0] < res.X[g] {
			t.Errorf("unit 0 (fastest) got %g < unit %d's %g", res.X[0], g, res.X[g])
		}
	}
}

// TestSolveResultInvariants: whichever path solves, the result satisfies
// the problem's constraints.
func TestSolveResultInvariants(t *testing.T) {
	f := func(ipmOff bool, s1, s2, s3 uint8) bool {
		curves := []Curve{
			linear(0.1+float64(s1)/50, float64(s1%3)/100),
			linear(0.1+float64(s2)/50, float64(s2%3)/100),
			linear(0.1+float64(s3)/50, float64(s3%3)/100),
		}
		p := Problem{Curves: curves, Total: 100}
		res, err := Solve(p, Options{DisableIPM: ipmOff})
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
		return math.Abs(sum-100) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSolveStepFunctionFallsBack: a nasty discontinuous curve defeats
// Newton but the water-filling fallback still produces a feasible split.
func TestSolveStepFunctionFallsBack(t *testing.T) {
	step := funcCurve{f: func(x float64) float64 {
		if x > 50 {
			return 1000 + x
		}
		return x
	}}
	p := Problem{Curves: []Curve{step, linear(1, 0)}, Total: 200}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range res.X {
		sum += x
	}
	if math.Abs(sum-200) > 1e-3 {
		t.Errorf("sum = %g", sum)
	}
}

// TestKKTErrorAtOptimum: at a hand-constructed optimum the residual with
// mu=0 vanishes.
func TestKKTErrorAtOptimum(t *testing.T) {
	// Two identical linear curves E = x: optimum x = (0.5, 0.5) of total 1,
	// tau = 0.5, lambda = (0.5, 0.5), z = 0, nu = -0.5 (scaled space).
	p := Problem{Curves: []Curve{linear(1, 0), linear(1, 0)}, Total: 1}
	sc, err := newScaled(p)
	if err != nil {
		t.Fatal(err)
	}
	it := &iterate{
		u:   []float64{0.5, 0.5},
		s:   []float64{1e-12, 1e-12},
		lam: []float64{0.5, 0.5},
		z:   []float64{0, 0},
		e:   make([]float64, 2),
		d:   make([]float64, 2),
		tau: sc.eval(0, 0.5),
		nu:  -0.5 * sc.deriv(0, 0.5),
	}
	it.evalCurves(sc)
	if e := kktError(it, 0); e > 1e-9 {
		t.Errorf("KKT residual at optimum = %g", e)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Tol <= 0 || o.MaxIter <= 0 || o.Mu0 <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	custom := Options{Tol: 1e-4, MaxIter: 7, Mu0: 0.5}.withDefaults()
	if custom.Tol != 1e-4 || custom.MaxIter != 7 || custom.Mu0 != 0.5 {
		t.Errorf("custom values overridden: %+v", custom)
	}
}

// TestSolveConcaveCurves: E_g(x) = a·√x is monotone but concave — the
// barrier problem is nonconvex. Whichever path handles it, the result must
// stay feasible with near-equal times.
func TestSolveConcaveCurves(t *testing.T) {
	sqrtCurve := func(a float64) Curve {
		return funcCurve{f: func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return a * math.Sqrt(x)
		}}
	}
	p := Problem{Curves: []Curve{sqrtCurve(1), sqrtCurve(2), sqrtCurve(4)}, Total: 100}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, res, 5e-2)
	// The cheaper curve gets more work: x ∝ 1/a².
	if !(res.X[0] > res.X[1] && res.X[1] > res.X[2]) {
		t.Errorf("work not ordered by speed: %v", res.X)
	}
}

// TestSolveMixedFailedAndSlow: one failed (infinite) unit among slow ones.
func TestSolveMixedFailedAndSlow(t *testing.T) {
	inf := funcCurve{f: func(x float64) float64 { return math.Inf(1) }}
	p := Problem{Curves: []Curve{linear(5, 1), inf, linear(0.1, 0)}, Total: 50}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[1] != 0 {
		t.Errorf("failed unit received %g", res.X[1])
	}
	if res.X[2] < res.X[0] {
		t.Errorf("fast unit got less: %v", res.X)
	}
}
