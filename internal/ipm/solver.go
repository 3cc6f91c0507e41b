package ipm

import (
	"fmt"
	"math"
	"time"
)

// Solver is a reusable block-size solver. It keeps its workspaces across
// calls, so repeated solves over the same cluster allocate nothing in
// steady state. Each solve is independent of the previous one.
//
// The returned Result.X aliases solver-owned storage and is valid until the
// next Solve call; callers that keep distributions (the scheduler copies
// into its share vector immediately) must copy. A Solver is not safe for
// concurrent use.
type Solver struct {
	sc     scaled
	fill   fillState
	active []int     // indices of curves finite at the even split
	curves []Curve   // the active sub-problem's curves
	x      []float64 // the active sub-problem's split
	xfull  []float64
}

// NewSolver returns a Solver. Options has no effect.
func NewSolver(Options) *Solver { return &Solver{} }

// Solve computes the equal-finish-time distribution. Units whose curves
// are not finite at the even split get zero work; the rest share Total.
func (sv *Solver) Solve(p Problem) (Result, error) {
	start := time.Now()
	n := len(p.Curves)
	if math.IsNaN(p.Total) || math.IsInf(p.Total, 0) {
		// NaN would pass the <= 0 check below and poison every division.
		return Result{}, fmt.Errorf("ipm: total=%g: %w", p.Total, ErrNonFinite)
	}
	if n == 0 || p.Total <= 0 {
		return Result{}, fmt.Errorf("ipm: empty problem (n=%d total=%g)", n, p.Total)
	}

	sv.sc.evals = 0
	if err := sv.activeSet(p); err != nil {
		return Result{}, err
	}
	sv.xfull = resizeVec(sv.xfull, n)
	for i := range sv.xfull {
		sv.xfull[i] = 0
	}

	if len(sv.active) == 1 {
		// One live unit takes everything.
		g := sv.active[0]
		sv.xfull[g] = p.Total
		return Result{X: sv.xfull, Tau: p.Curves[g].Eval(p.Total), Evaluations: sv.sc.evals + 1, WallTime: time.Since(start)}, nil
	}

	sv.curves = sv.curves[:0]
	for _, g := range sv.active {
		sv.curves = append(sv.curves, p.Curves[g])
	}
	if err := sv.sc.init(Problem{Curves: sv.curves, Total: p.Total}); err != nil {
		return Result{}, err
	}
	tau, capacity, steps, err := sv.fill.solve(&sv.sc)
	if err != nil {
		return Result{}, err
	}
	sv.x = resizeVec(sv.x, len(sv.active))
	res := sv.sc.resultInto(sv.x, sv.fill.hi.x, tau)
	res.Iterations = steps
	res.Evaluations = sv.sc.evals
	res.KKTResidual = math.Abs(capacity - 1)
	if err := validResult(res, p.Total); err != nil {
		return Result{}, err
	}
	// Scatter the active sub-solution back onto the full index space.
	for i, g := range sv.active {
		sv.xfull[g] = res.X[i]
	}
	res.X = sv.xfull
	res.WallTime = time.Since(start)
	return res, nil
}

// activeSet fills sv.active with the curves finite at the even split over
// the active units, iterated to a fixpoint (shrinking the set raises the
// even split, which can expose further non-finite curves).
func (sv *Solver) activeSet(p Problem) error {
	sv.active = sv.active[:0]
	for g := range p.Curves {
		sv.active = append(sv.active, g)
	}
	for {
		even := p.Total / float64(len(sv.active))
		sv.sc.evals += len(sv.active)
		kept := sv.active[:0]
		for _, g := range sv.active {
			v := p.Curves[g].Eval(even)
			if math.IsInf(v, 0) || math.IsNaN(v) {
				continue
			}
			kept = append(kept, g)
		}
		changed := len(kept) != len(sv.active)
		sv.active = kept
		if len(sv.active) == 0 {
			return ErrInfeasible
		}
		if !changed {
			return nil
		}
	}
}
