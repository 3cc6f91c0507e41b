package ipm

import (
	"fmt"
	"math"
	"time"
)

// Solver is a reusable interior-point solver. It keeps its workspaces and
// the previous solve's interior iterate across calls, so repeated solves
// over the same cluster allocate nothing in steady state, and a solve whose
// active curve set matches the previous one warm-starts from its iterate
// and converges in a fraction of the cold iteration count.
//
// The returned Result.X aliases solver-owned storage and is valid until the
// next Solve call; callers that keep distributions (the scheduler copies
// into its share vector immediately) must copy. A Solver is not safe for
// concurrent use.
type Solver struct {
	opt    Options
	st     solveState
	sc     scaled
	warm   warmState
	active []int   // indices of curves finite at the even split
	curves []Curve // the active sub-problem's curves
	xfull  []float64
}

// NewSolver returns a Solver with the given options (zero values replaced
// by defaults).
func NewSolver(opt Options) *Solver {
	return &Solver{opt: opt.withDefaults()}
}

// Invalidate drops the warm-start state, forcing the next solve to start
// cold. Schedulers call it when the cluster topology changed in a way the
// active-set signature cannot see (a unit blacklisted, a device replaced).
func (sv *Solver) Invalidate() { sv.warm.valid = false }

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

	// Active set: curves finite at the even split over the active units,
	// iterated to a fixpoint (shrinking the set raises the even split, which
	// can expose further non-finite curves).
	sv.active = sv.active[:0]
	for g := range p.Curves {
		sv.active = append(sv.active, g)
	}
	for {
		even := p.Total / float64(len(sv.active))
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
			sv.warm.valid = false
			return Result{}, ErrInfeasible
		}
		if !changed {
			break
		}
	}
	if cap(sv.xfull) < n {
		sv.xfull = make([]float64, n)
	}
	sv.xfull = sv.xfull[:n]
	for i := range sv.xfull {
		sv.xfull[i] = 0
	}

	if len(sv.active) == 1 {
		// One live unit takes everything; nothing to warm start.
		sv.warm.valid = false
		g := sv.active[0]
		sv.xfull[g] = p.Total
		return Result{
			X: sv.xfull, Tau: p.Curves[g].Eval(p.Total),
			Converged: true, WallTime: time.Since(start),
		}, nil
	}

	sv.curves = sv.curves[:0]
	for _, g := range sv.active {
		sv.curves = append(sv.curves, p.Curves[g])
	}
	if err := sv.sc.init(Problem{Curves: sv.curves, Total: p.Total}); err != nil {
		sv.warm.valid = false
		return Result{}, err
	}

	ipmErr := error(ErrNoProgress)
	if !sv.opt.DisableIPM {
		var res Result
		if sv.warm.matches(sv.active) {
			res, ipmErr = sv.newton(&sv.warm, p.Total)
		}
		if ipmErr != nil {
			// Cold start, or a stale iterate stalled the line search or
			// left the region where the curves are finite: retry cold
			// before surrendering to the water-filling fallback.
			res, ipmErr = sv.newton(nil, p.Total)
		}
		if ipmErr == nil {
			sv.warm.save(&sv.st.it, sv.active, sv.sc.timeScale)
			return sv.finish(res, start), nil
		}
	}

	// Newton failed: no iterate worth keeping.
	sv.warm.valid = false
	if sv.opt.DisableFall {
		return Result{}, ipmErr
	}
	res, err := solveWaterFill(&sv.sc, &sv.st)
	if err != nil {
		return Result{}, err
	}
	if err := validResult(res, p.Total); err != nil {
		return Result{}, err
	}
	res.UsedFallback = true
	return sv.finish(res, start), nil
}

// newton runs the interior-point iteration on the active sub-problem from
// warm (nil: the cold interior point) and checks the solver's contract on
// the result.
func (sv *Solver) newton(warm *warmState, total float64) (Result, error) {
	res, err := solveIPM(&sv.sc, sv.opt, &sv.st, warm)
	if err == nil {
		err = validResult(res, total)
	}
	return res, err
}

// finish scatters the active sub-solution back onto the full index space
// and stamps the wall time.
func (sv *Solver) finish(res Result, start time.Time) Result {
	for i, g := range sv.active {
		sv.xfull[g] = res.X[i]
	}
	res.X = sv.xfull
	res.WallTime = time.Since(start)
	return res
}

// warmState is the previous solve's final interior iterate, kept by a
// Solver for warm starting the next one.
type warmState struct {
	valid     bool
	active    []int // active-curve signature the iterate belongs to
	u         []float64
	s         []float64
	lam       []float64
	z         []float64
	tau, nu   float64
	timeScale float64
}

// matches reports whether the stored iterate belongs to the same active
// curve set — the warm-start invalidation rule. A changed set (a unit died
// or recovered) re-dimensions the problem, so the iterate is useless.
func (w *warmState) matches(active []int) bool {
	if !w.valid || len(w.active) != len(active) {
		return false
	}
	for i, g := range active {
		if w.active[i] != g {
			return false
		}
	}
	return true
}

// save copies the accepted iterate and its signature into w's reusable
// buffers.
func (w *warmState) save(it *iterate, active []int, timeScale float64) {
	w.active = append(w.active[:0], active...)
	w.u = append(w.u[:0], it.u...)
	w.s = append(w.s[:0], it.s...)
	w.lam = append(w.lam[:0], it.lam...)
	w.z = append(w.z[:0], it.z...)
	w.tau, w.nu = it.tau, it.nu
	w.timeScale = timeScale
	w.valid = true
}

// warmPointInto restores a strictly interior, primal-feasible point around
// the previous solve's iterate under the new curves and time scaling, and
// returns the barrier parameter to resume from. ok is false when the old
// iterate cannot be made usable (non-finite curve values at the restored
// shares); the caller then starts cold.
//
// The shares u and the inequality duals λ are dimensionless (both sum to 1
// at the optimum) and transfer directly. τ, z and ν carry time units, so
// they rescale by oldTimeScale/newTimeScale; the slacks are recomputed
// against the new curves, with τ lifted just enough that every slack stays
// strictly positive — the feasibility-restoring shift.
func warmPointInto(sc *scaled, w *warmState, opt Options, it *iterate) (mu float64, ok bool) {
	n := sc.n
	const floor = 1e-10
	uMin := 1e-8 / float64(n)

	sum := 0.0
	for g := 0; g < n; g++ {
		u := w.u[g]
		if !(u > uMin) { // also catches NaN
			u = uMin
		}
		it.u[g] = u
		sum += u
	}
	for g := 0; g < n; g++ {
		it.u[g] /= sum
	}

	ratio := w.timeScale / sc.timeScale
	if !(ratio > 0) || math.IsInf(ratio, 0) {
		ratio = 1
	}
	tau := w.tau * ratio
	if !(tau > 0) {
		return 0, false
	}

	// First pass: evaluate the new curves at the restored shares (stashed
	// in it.s) and find the binding one.
	maxEv := math.Inf(-1)
	for g := 0; g < n; g++ {
		ev := sc.eval(g, it.u[g])
		if math.IsInf(ev, 0) || math.IsNaN(ev) {
			return 0, false
		}
		it.s[g] = ev
		if ev > maxEv {
			maxEv = ev
		}
	}
	// Feasibility-restoring shift: lift τ above every curve so all slacks
	// are strictly positive. When the curves barely moved this is a no-op.
	slackFloor := 1e-6 * math.Max(1, math.Abs(maxEv))
	if tau < maxEv+slackFloor {
		tau = maxEv + slackFloor
	}

	comp := 0.0
	for g := 0; g < n; g++ {
		s := tau - it.s[g]
		it.s[g] = s
		lam := w.lam[g]
		if !(lam > floor) {
			lam = floor
		} else if lam > 1e8 {
			lam = 1e8
		}
		z := w.z[g] * ratio
		if !(z > floor) {
			z = floor
		} else if z > 1e8 {
			z = 1e8
		}
		it.lam[g] = lam
		it.z[g] = z
		comp += it.u[g]*z + s*lam
	}
	it.tau = tau
	nu := w.nu * ratio
	if math.IsNaN(nu) || math.IsInf(nu, 0) {
		nu = 0
	}
	it.nu = nu

	// Resume the barrier from the restored complementarity rather than
	// Mu0: a good iterate re-enters the endgame directly.
	mu = comp / float64(2*n)
	if !(mu > opt.Tol) {
		mu = opt.Tol
	} else if mu > opt.Mu0 {
		mu = opt.Mu0
	}
	return mu, true
}
