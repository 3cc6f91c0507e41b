// Package ipm implements the nonlinear solver behind the paper's block-size
// selection (§III.C): given fitted per-unit time curves E_g, find the work
// split x₁…x_n with Σx_g = Total that makes every processing unit finish at
// the same time (Eqs. 3–5). The paper solves this with IPOPT's interior
// point line-search filter method [25]; this package is a from-scratch
// reimplementation of that method, from the paper's handful of processing
// units up to generated clusters of thousands.
//
// The NLP is the makespan form: minimize τ subject to
//
//	E_g(x_g) − τ ≤ 0   (g = 1…n)
//	Σ x_g = Total
//	x_g ≥ 0
//
// whose KKT conditions at the optimum give E_g(x_g) = τ for every unit with
// x_g > 0 — exactly the equal-finish-time condition (Eq. 4).
//
// The solver is a primal-dual interior-point method: slacks on the
// inequalities, log barriers on slacks and bounds, Newton steps on the
// perturbed KKT system (an O(n) block elimination over its arrow
// structure, arrow.go), a fraction-to-the-boundary rule, a
// Wächter–Biegler-style filter line search, and an adaptive barrier-
// parameter update in the spirit of [25]. A Solver warm-starts each solve
// from the previous one's iterate while the active curve set is unchanged.
// A monotone water-filling fallback on τ (waterfill.go) guarantees a usable
// split whenever Newton stalls on a pathological fitted curve.
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
	// Deriv returns dE/dx at x.
	Deriv(x float64) float64
}

// Problem is the block-size selection instance.
type Problem struct {
	Curves []Curve
	// Total is the amount of work to distribute (Σ x_g = Total).
	Total float64
}

// Options tunes the solver. The zero value is replaced by defaults.
type Options struct {
	Tol         float64 // KKT residual tolerance (scaled); default 1e-8
	MaxIter     int     // Newton iteration cap; default 100
	Mu0         float64 // initial barrier parameter; default 0.1
	DisableIPM  bool    // force the water-filling fallback (for ablations)
	DisableFall bool    // forbid the fallback (surface IPM failures)

	// Structured is ignored: every Newton step is the arrow-structured
	// elimination.
	//
	// Deprecated: kept so that existing callers compile.
	Structured bool
	// WarmStart is ignored: a Solver always warm-starts while the active
	// curve set is unchanged.
	//
	// Deprecated: kept so that existing callers compile.
	WarmStart bool
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.Mu0 <= 0 {
		o.Mu0 = 0.1
	}
	return o
}

// Result reports the computed distribution.
type Result struct {
	X            []float64 // block sizes, Σ = Total
	Tau          float64   // common finish time
	Iterations   int
	Converged    bool // Newton reached tolerance (false when fallback used)
	UsedFallback bool
	// WarmStarted reports that the accepted iteration started from a
	// previous solve's iterate rather than the cold even-split interior
	// point.
	WarmStarted bool
	KKTResidual float64
	WallTime    time.Duration
}

// ErrInfeasible is returned when no distribution exists (e.g. all curves
// are +Inf — every device failed).
var ErrInfeasible = errors.New("ipm: infeasible block-size problem")

// ErrNoProgress is returned when the Newton line search stalls (no
// acceptable step) and the fallback is disabled.
var ErrNoProgress = errors.New("ipm: line search stalled")

// ErrNonFinite is returned when the problem contains non-finite inputs
// (NaN/Inf total or curves) or the iteration produces non-finite values —
// chaos-corrupted profiles classify here instead of yielding garbage.
var ErrNonFinite = errors.New("ipm: non-finite inputs or iterates")

// ErrNoConverge is returned when the Newton iteration exhausts its
// iteration budget without reaching tolerance.
var ErrNoConverge = errors.New("ipm: iteration budget exhausted without convergence")

// ErrIllConditioned is returned when the KKT system is singular or too
// ill-conditioned to factor.
var ErrIllConditioned = errors.New("ipm: ill-conditioned KKT system")

// Solve computes the equal-finish-time distribution with a fresh Solver,
// so it always starts cold and the returned Result.X is the caller's.
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
}

// init (re)binds s to p, recomputing the scaling. It allocates nothing, so
// a Solver can rebind its scaled view on every call.
func (s *scaled) init(p Problem) error {
	n := len(p.Curves)
	even := p.Total / float64(n)
	ts := 0.0
	finiteCurves := 0
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
	v := s.p.Curves[g].Eval(u*s.p.Total) / s.timeScale
	if math.IsNaN(v) {
		return math.Inf(1)
	}
	return v
}

// deriv returns dÊ_g/du.
func (s *scaled) deriv(g int, u float64) float64 {
	return s.p.Curves[g].Deriv(u*s.p.Total) * s.p.Total / s.timeScale
}

// deriv2 returns a numeric second derivative d²Ê_g/du², guarded for
// curves whose analytic derivative is noisy. Near u = 0 the lower sample
// is clamped into the domain, so the difference is divided by the spacing
// actually taken rather than 2h.
func (s *scaled) deriv2(g int, u float64) float64 {
	const h = 1e-5
	lo, span := u-h, 2*h
	if lo < 1e-12 {
		lo = 1e-12
		span = u + h - lo
	}
	d := (s.deriv(g, u+h) - s.deriv(g, lo)) / span
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0
	}
	return d
}

// resultInto converts a scaled solution back to problem units, writing the
// block sizes into x (len n); the returned Result.X aliases x.
func (s *scaled) resultInto(x []float64, u []float64, tau float64) Result {
	// Remove tiny interior-point slack from the bounds and renormalize so
	// the block sizes sum to exactly Total.
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
