// Package ipm implements the solver behind the paper's block-size selection
// (§III.C): given fitted per-unit time curves E_g, find the work split
// x₁…x_n with Σx_g = Total that makes every processing unit finish at the
// same time (Eqs. 3–5), from the paper's handful of processing units up to
// generated clusters of thousands.
//
// The problem is the makespan form: choose x_g ≥ 0 with Σ x_g = Total to
// minimize τ, the latest finish time E_g(x_g) over the units that get work
// (x_g > 0). At the optimum every such unit finishes at τ — exactly the
// equal-finish-time condition (Eq. 4). The paper writes it as the NLP
//
//	minimize τ  subject to  E_g(x_g) − τ ≤ 0 (g = 1…n),  Σ x_g = Total,  x_g ≥ 0
//
// and solves it with IPOPT's interior-point method [25], which finds a KKT
// point. This package solves it exactly in one dimension instead. Let
// x_g(τ) be the most work unit g can finish within τ. When every E_g is
// non-decreasing, x_g(τ) is non-decreasing in τ, and any split with
// makespan τ gives each unit at most x_g(τ). So τ* = min{τ : Σ_g x_g(τ) ≥
// Total} is the global optimum, and the split x_g(τ*) attains it. A Solver
// finds τ* by water-filling (waterfill.go): a safeguarded bracket on τ,
// with each x_g(τ) the root of E_g(x) = τ. The curves the scheduler passes
// in are non-decreasing on [smallest probe, Total] by construction
// (package fit rejects every candidate model that dips there).
//
// The tests keep a primal-dual interior-point method of IPOPT's family as an
// oracle (newton_oracle_test.go). Wherever it converges it finds the same τ,
// or max_g E_g(0) when that is larger: the NLP above also asks units that
// get no work to finish by τ.
package ipm

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Curve is one processing unit's total-time model E_g (processing + transfer).
type Curve interface {
	// Eval returns the modeled time to handle a block of size x.
	Eval(x float64) float64
}

// Problem is the block-size selection instance.
type Problem struct {
	Curves []Curve
	// Total is the amount of work to distribute (Σ x_g = Total).
	Total float64
}

// Options is accepted for compatibility; the solver has nothing to tune.
type Options struct {
	// Structured is ignored.
	//
	// Deprecated: kept so that existing callers compile.
	Structured bool
	// WarmStart is ignored: water-filling keeps no state between solves.
	//
	// Deprecated: kept so that existing callers compile.
	WarmStart bool
}

// Result reports the computed distribution.
type Result struct {
	X   []float64 // block sizes, Σ = Total
	Tau float64   // common finish time
	// Iterations counts the water-filling τ steps: the trial makespans
	// tried after the two initial bracket ends.
	Iterations int
	// Evaluations counts the curve evaluations the solve made.
	Evaluations int
	// KKTResidual is |Σ x_g(τ) − Total| / Total at the returned τ, before
	// the split is rescaled to sum to Total exactly.
	KKTResidual float64
	WallTime    time.Duration
}

// ErrInfeasible is returned when no distribution exists (e.g. all curves
// are +Inf — every device failed).
var ErrInfeasible = errors.New("ipm: infeasible block-size problem")

// ErrNonFinite is returned when the problem contains non-finite inputs
// (NaN/Inf total or curves) or the solve produces non-finite values —
// chaos-corrupted profiles classify here instead of yielding garbage.
var ErrNonFinite = errors.New("ipm: non-finite inputs or iterates")

// Solve computes the equal-finish-time distribution with a fresh Solver, so
// the returned Result.X is the caller's.
func Solve(p Problem, opt Options) (Result, error) {
	return NewSolver(opt).Solve(p)
}

// validResult guards the solver's contract: every returned block size is
// finite and non-negative and the sizes sum to Total (within rounding).
// A violation — only reachable with pathological curve inputs — classifies
// as ErrNonFinite rather than propagating garbage into a distribution.
func validResult(res Result, total float64) error {
	var sum float64
	for _, x := range res.X {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("ipm: block size %g in solution: %w", x, ErrNonFinite)
		}
		sum += x
	}
	if math.Abs(sum-total) > 1e-6*math.Max(1, math.Abs(total)) {
		return fmt.Errorf("ipm: solution sums to %g, want %g: %w", sum, total, ErrNonFinite)
	}
	if math.IsNaN(res.Tau) || math.IsInf(res.Tau, 0) {
		return fmt.Errorf("ipm: non-finite makespan %g: %w", res.Tau, ErrNonFinite)
	}
	return nil
}

// scaled holds the problem normalized for conditioning: work in units of
// Total (so Σu = 1) and time in units of a typical finish time.
type scaled struct {
	p         Problem
	n         int
	timeScale float64
	evals     int // curve evaluations since the count was last reset
}

// init (re)binds s to p, recomputing the scaling. It allocates nothing, so
// a Solver can rebind its scaled view on every call.
func (s *scaled) init(p Problem) error {
	n := len(p.Curves)
	even := p.Total / float64(n)
	ts := 0.0
	finiteCurves := 0
	s.evals += n
	for _, c := range p.Curves {
		v := c.Eval(even)
		if math.IsInf(v, 1) || math.IsNaN(v) {
			continue
		}
		finiteCurves++
		if v > ts {
			ts = v
		}
	}
	if finiteCurves == 0 {
		return ErrInfeasible
	}
	if ts <= 0 {
		ts = 1
	}
	s.p, s.n, s.timeScale = p, n, ts
	return nil
}

// eval returns the scaled time Ê_g(u) for scaled work u ∈ [0,1].
func (s *scaled) eval(g int, u float64) float64 {
	s.evals++
	v := s.p.Curves[g].Eval(u*s.p.Total) / s.timeScale
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// resultInto converts a scaled solution back to problem units, writing the
// block sizes into x (len n); the returned Result.X aliases x.
func (s *scaled) resultInto(x []float64, u []float64, tau float64) Result {
	// Clip negative shares and renormalize so the block sizes sum to
	// exactly Total.
	var sum float64
	for i, ui := range u {
		if ui < 0 {
			ui = 0
		}
		x[i] = ui
		sum += ui
	}
	if sum > 0 {
		for i := range x {
			x[i] = x[i] / sum * s.p.Total
		}
	}
	return Result{X: x, Tau: tau * s.timeScale}
}
