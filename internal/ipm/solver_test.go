package ipm

import (
	"math"
	"math/rand"
	"testing"
)

// TestSolverWarmInvalidation checks that a Solver carries nothing from one
// solve into the next: after solves over a different problem and over a
// changed active curve set (a dead unit), its split is bit-identical to a
// fresh Solver's, with zero work on the dead unit.
func TestSolverWarmInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomProblem(6, rng)
	other := randomProblem(9, rng)
	dead := Problem{Total: p.Total, Curves: append([]Curve(nil), p.Curves...)}
	dead.Curves[2] = infCurve{}

	sv := NewSolver(Options{})
	for _, q := range []Problem{p, other, dead, p, dead} {
		got, err := sv.Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Solve(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Tau != want.Tau || got.Iterations != want.Iterations {
			t.Fatalf("reused solver: τ %g in %d steps, fresh: τ %g in %d steps",
				got.Tau, got.Iterations, want.Tau, want.Iterations)
		}
		for g := range want.X {
			if got.X[g] != want.X[g] {
				t.Fatalf("X[%d] reused=%g fresh=%g", g, got.X[g], want.X[g])
			}
		}
	}

	res, err := sv.Solve(dead)
	if err != nil {
		t.Fatal(err)
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
