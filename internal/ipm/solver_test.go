package ipm

import (
	"math"
	"math/rand"
	"testing"
)

// scaleCurve perturbs a base curve by a constant factor — the shape of a
// refit after a mild speed drift.
type scaleCurve struct {
	base Curve
	k    float64
}

func (c scaleCurve) Eval(x float64) float64  { return c.k * c.base.Eval(x) }
func (c scaleCurve) Deriv(x float64) float64 { return c.k * c.base.Deriv(x) }

// TestSolverWarmStart checks the warm-start lifecycle: the first solve is
// cold, a repeat solve warm-starts and converges in fewer iterations to the
// same distribution, and a perturbed refit still warm-starts.
func TestSolverWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(8, rng)
	sv := NewSolver(Options{})

	first, err := sv.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.WarmStarted {
		t.Fatal("first solve reported WarmStarted")
	}
	firstX := append([]float64(nil), first.X...)

	second, err := sv.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !second.WarmStarted {
		t.Fatal("repeat solve did not warm start")
	}
	if second.Iterations >= first.Iterations {
		t.Fatalf("warm iterations %d >= cold %d", second.Iterations, first.Iterations)
	}
	for g := range firstX {
		if d := math.Abs(second.X[g] - firstX[g]); d > 1e-4*p.Total {
			t.Fatalf("X[%d] warm=%g cold=%g", g, second.X[g], firstX[g])
		}
	}

	// A mildly perturbed system (refit after drift) should still warm start
	// and converge.
	pert := Problem{Total: p.Total, Curves: make([]Curve, len(p.Curves))}
	for g, c := range p.Curves {
		pert.Curves[g] = scaleCurve{base: c, k: 1 + 0.1*rng.Float64()}
	}
	third, err := sv.Solve(pert)
	if err != nil {
		t.Fatal(err)
	}
	if !third.WarmStarted {
		t.Fatal("perturbed solve did not warm start")
	}
	if !third.Converged {
		t.Fatal("perturbed warm solve did not converge")
	}
}

// TestSolverWarmInvalidation checks the two cold-start triggers: an
// explicit Invalidate and a changed active curve set (a dead unit).
func TestSolverWarmInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomProblem(6, rng)
	sv := NewSolver(Options{})
	if _, err := sv.Solve(p); err != nil {
		t.Fatal(err)
	}

	sv.Invalidate()
	res, err := sv.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarted {
		t.Fatal("solve after Invalidate reported WarmStarted")
	}

	// Kill unit 2: the active set shrinks, so the stored iterate no longer
	// matches and the solve must start cold — with zero work on the dead
	// unit.
	if _, err := sv.Solve(p); err != nil { // re-arm the warm state
		t.Fatal(err)
	}
	dead := Problem{Total: p.Total, Curves: append([]Curve(nil), p.Curves...)}
	dead.Curves[2] = infCurve{}
	res, err = sv.Solve(dead)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarted {
		t.Fatal("solve with a changed active set reported WarmStarted")
	}
	if res.X[2] != 0 {
		t.Fatalf("dead unit got %g units, want 0", res.X[2])
	}
	var sum float64
	for _, x := range res.X {
		sum += x
	}
	if math.Abs(sum-p.Total) > 1e-6*p.Total {
		t.Fatalf("distribution sums to %g, want %g", sum, p.Total)
	}
}

// infCurve is a failed device: infinite time for any block.
type infCurve struct{}

func (infCurve) Eval(x float64) float64  { return math.Inf(1) }
func (infCurve) Deriv(x float64) float64 { return 0 }

// TestStructuredSolveZeroAlloc pins a cold structured solve on warm
// workspaces at zero heap allocations per call (CI zero-alloc gate).
func TestStructuredSolveZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	p := randomProblem(8, rng)
	sv := NewSolver(Options{})
	for i := 0; i < 3; i++ { // warm the workspaces
		if _, err := sv.Solve(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		sv.Invalidate()
		res, err := sv.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.WarmStarted {
			t.Fatal("solve after Invalidate warm-started")
		}
	})
	if allocs != 0 {
		t.Fatalf("structured solve allocates %.1f times per call, want 0", allocs)
	}
}

// TestWarmRefitZeroAlloc pins the warm-started refit path — the per-
// rebalance hot path at cluster scale — at zero heap allocations per call.
func TestWarmRefitZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	p := randomProblem(16, rng)
	sv := NewSolver(Options{})
	for i := 0; i < 3; i++ {
		res, err := sv.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !res.WarmStarted {
			t.Fatal("refit did not warm start")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sv.Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm refit allocates %.1f times per call, want 0", allocs)
	}
}
