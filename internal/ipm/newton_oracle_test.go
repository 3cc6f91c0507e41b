package ipm

import (
	"errors"
	"math"

	"plbhec/internal/linalg"
)

// This file is a test oracle the water-filling solver is checked against:
// a primal-dual interior-point method, a from-scratch reimplementation of
// the IPOPT method [25] the paper uses. It solves the
// same scaled makespan NLP with slacks on the inequalities, log barriers on
// slacks and bounds, Newton steps on the perturbed KKT system (the O(n)
// arrow elimination of arrow_oracle_test.go), a fraction-to-the-boundary
// rule, a Wächter–Biegler-style filter line search, and an adaptive barrier-
// parameter update. It needs each curve's derivative (derivCurve) and finds
// a KKT point at best.

// derivCurve is a Curve with an analytic derivative, which the Newton
// oracle needs; curves without one get a central difference.
type derivCurve interface {
	Curve
	Deriv(x float64) float64
}

// newtonOptions tunes the oracle.
type newtonOptions struct {
	Tol     float64 // KKT residual tolerance (scaled); default 1e-8
	MaxIter int     // Newton iteration cap; default 100
	Mu0     float64 // initial barrier parameter; default 0.1
}

func (o newtonOptions) withDefaults() newtonOptions {
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

// The oracle's failure classes.
var (
	errNoProgress     = errors.New("ipm: line search stalled")
	errNoConverge     = errors.New("ipm: iteration budget exhausted without convergence")
	errIllConditioned = errors.New("ipm: ill-conditioned KKT system")
)

// deriv returns dÊ_g/du.
func deriv(s *scaled, g int, u float64) float64 {
	x := u * s.p.Total
	var d float64
	if c, ok := s.p.Curves[g].(derivCurve); ok {
		d = c.Deriv(x)
	} else {
		h := 1e-6 * (math.Abs(x) + 1)
		d = (s.p.Curves[g].Eval(x+h) - s.p.Curves[g].Eval(x-h)) / (2 * h)
	}
	return d * s.p.Total / s.timeScale
}

// deriv2 returns a numeric second derivative d²Ê_g/du², guarded for
// curves whose analytic derivative is noisy. Near u = 0 the lower sample
// is clamped into the domain, so the difference is divided by the spacing
// actually taken rather than 2h.
func deriv2(s *scaled, g int, u float64) float64 {
	const h = 1e-5
	lo, span := u-h, 2*h
	if lo < 1e-12 {
		lo = 1e-12
		span = u + h - lo
	}
	d := (deriv(s, g, u+h) - deriv(s, g, lo)) / span
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0
	}
	return d
}

// iterate is the primal-dual point: scaled work u, makespan tau, inequality
// slacks s, inequality duals lambda, bound duals z, equality dual nu. e and
// d cache the curves at u, e_g = Ê_g(u_g) and d_g = Ê′_g(u_g): the Newton
// loop fills them once per iterate (evalCurves), and the convergence check,
// the barrier update and the arrow elimination all read them.
type iterate struct {
	u, s, lam, z linalg.Vector
	e, d         linalg.Vector
	tau, nu      float64
}

// resize adjusts every vector to length n, reusing capacity. Contents are
// unspecified afterwards; callers overwrite every element.
func (it *iterate) resize(n int) {
	it.u = resizeVec(it.u, n)
	it.s = resizeVec(it.s, n)
	it.lam = resizeVec(it.lam, n)
	it.z = resizeVec(it.z, n)
	it.e = resizeVec(it.e, n)
	it.d = resizeVec(it.d, n)
}

// evalCurves fills it.e and it.d at it.u.
func (it *iterate) evalCurves(sc *scaled) {
	for g, u := range it.u {
		it.e[g] = sc.eval(g, u)
		it.d[g] = deriv(sc, g, u)
	}
}

// evalDerivs fills it.d at it.u, for an iterate whose it.e the line search
// already evaluated.
func (it *iterate) evalDerivs(sc *scaled) {
	for g, u := range it.u {
		it.d[g] = deriv(sc, g, u)
	}
}

// newtonState owns every buffer one Newton solve needs. The zero value is
// ready: buffers are sized on prepare and reused across iterations.
type newtonState struct {
	it     iterate
	cand   iterate // line-search trials; only u, tau, s and e are used
	filter filterSet
	step   linalg.Vector
	x      []float64 // result block sizes (aliased by the returned Result.X)
	arrow  arrowWorkspace
}

// prepare sizes the O(n) buffers for an n-unit solve.
func (st *newtonState) prepare(n int) {
	st.it.resize(n)
	st.cand.u = resizeVec(st.cand.u, n)
	st.cand.s = resizeVec(st.cand.s, n)
	st.cand.e = resizeVec(st.cand.e, n)
	st.step = resizeVec(st.step, 4*n+2)
	st.x = resizeVec(st.x, n)
	st.filter.reset()
}

// solveIPM runs the primal-dual interior-point iteration on the scaled
// problem from the cold interior point. Failures come back classified —
// errIllConditioned (KKT system would not factor), ErrNonFinite (step or
// iterate left the reals), errNoProgress (line search stalled),
// errNoConverge (iteration budget exhausted).
func solveIPM(sc *scaled, opt newtonOptions, st *newtonState) (Result, error) {
	opt = opt.withDefaults()
	n := sc.n
	mu := opt.Mu0

	st.prepare(n)
	it := &st.it
	initialPointInto(sc, mu, it)
	filter := &st.filter

	step := st.step
	cand := &st.cand
	it.evalCurves(sc)

	const (
		kappaEps   = 10.0  // inner tolerance: E_mu <= kappaEps*mu
		kappaMu    = 0.2   // linear mu reduction factor
		thetaMu    = 1.5   // superlinear mu reduction exponent
		fracToBdry = 0.995 // fraction-to-the-boundary parameter
	)

	for iter := 1; iter <= opt.MaxIter; iter++ {
		// Convergence check with mu = 0 (true KKT residual).
		e0 := kktError(it, 0)
		if e0 <= opt.Tol {
			out := sc.resultInto(st.x, it.u, it.tau)
			out.Iterations = iter - 1
			out.KKTResidual = e0
			return out, nil
		}
		// Barrier update: tighten mu once the barrier subproblem is solved.
		for kktError(it, mu) <= kappaEps*mu && mu > opt.Tol/10 {
			mu = math.Max(opt.Tol/10, math.Min(kappaMu*mu, math.Pow(mu, thetaMu)))
			filter.reset()
		}

		// Solve the Newton system J*d = -R.
		if err := arrowSolve(sc, it, mu, &st.arrow, step); err != nil {
			return Result{}, err
		}
		if !step.IsFinite() {
			return Result{}, ErrNonFinite
		}
		du := step[0:n]
		dtau := step[n]
		ds := step[n+1 : 2*n+1]
		dlam := step[2*n+1 : 3*n+1]
		dz := step[3*n+1 : 4*n+1]
		dnu := step[4*n+1]

		// Fraction-to-the-boundary step limits for primal and dual parts.
		aPrimal := maxStep(it.u, du, fracToBdry)
		aPrimal = math.Min(aPrimal, maxStep(it.s, ds, fracToBdry))
		aDual := maxStep(it.lam, dlam, fracToBdry)
		aDual = math.Min(aDual, maxStep(it.z, dz, fracToBdry))

		// Filter line search on the primal variables. The trial point reuses
		// the workspace iterate: each trial re-copies the current point, and
		// acceptance swaps the buffers instead of abandoning them. The
		// accepted trial's curve values become the next iterate's it.e.
		accepted := false
		alpha := aPrimal
		for trial := 0; trial < 40; trial++ {
			copy(cand.u, it.u)
			copy(cand.s, it.s)
			cand.tau = it.tau
			cand.u.AddScaled(alpha, du)
			cand.tau += alpha * dtau
			cand.s.AddScaled(alpha, ds)
			th, ph := meritPair(sc, cand, mu)
			if filter.acceptable(th, ph) && math.IsInf(th, 0) == false {
				filter.add(th, ph)
				it.u, cand.u = cand.u, it.u
				it.s, cand.s = cand.s, it.s
				it.e, cand.e = cand.e, it.e
				it.tau = cand.tau
				accepted = true
				break
			}
			alpha /= 2
			if alpha < 1e-12 {
				break
			}
		}
		if !accepted {
			return Result{}, errNoProgress
		}
		// Dual variables take the (possibly longer) dual step length.
		it.lam.AddScaled(aDual, dlam)
		it.z.AddScaled(aDual, dz)
		it.nu += aDual * dnu

		if !it.u.IsFinite() || !it.s.IsFinite() || !it.lam.IsFinite() || !it.z.IsFinite() {
			return Result{}, ErrNonFinite
		}
		it.evalDerivs(sc)
	}
	// Out of iterations: accept only if reasonably converged.
	e0 := kktError(it, 0)
	if e0 <= math.Sqrt(opt.Tol) {
		out := sc.resultInto(st.x, it.u, it.tau)
		out.Iterations = opt.MaxIter
		out.KKTResidual = e0
		return out, nil
	}
	return Result{}, errNoConverge
}

// initialPointInto places the iterate strictly inside the feasible region:
// even split, makespan above every curve, consistent barrier duals.
func initialPointInto(sc *scaled, mu float64, it *iterate) {
	n := sc.n
	even := 1.0 / float64(n)
	worst := 0.0
	for g := 0; g < n; g++ {
		it.u[g] = even
		if v := sc.eval(g, even); v > worst && !math.IsInf(v, 1) {
			worst = v
		}
	}
	it.tau = worst*1.1 + 0.1
	for g := 0; g < n; g++ {
		slack := it.tau - sc.eval(g, even)
		if slack < 0.05 || math.IsNaN(slack) {
			slack = 0.05
		}
		it.s[g] = slack
		it.lam[g] = mu / slack
		it.z[g] = mu / even
	}
	it.nu = 0
}

// kktError is the max-norm of the KKT residual with barrier parameter mu
// (mu = 0 gives the true optimality error), from the curve values cached in
// it.e and it.d.
func kktError(it *iterate, mu float64) float64 {
	n := len(it.u)
	var e float64
	up := func(v float64) {
		if a := math.Abs(v); a > e {
			e = a
		}
	}
	sumLam, sumU := 0.0, 0.0
	for g := 0; g < n; g++ {
		up(it.lam[g]*it.d[g] + it.nu - it.z[g])
		up(it.e[g] - it.tau + it.s[g])
		up(it.u[g]*it.z[g] - mu)
		up(it.s[g]*it.lam[g] - mu)
		sumLam += it.lam[g]
		sumU += it.u[g]
	}
	up(1 - sumLam)
	up(sumU - 1)
	return e
}

// meritPair returns the filter coordinates of an iterate: primal
// infeasibility theta and barrier objective phi. It leaves the curve values
// at it.u in it.e.
func meritPair(sc *scaled, it *iterate, mu float64) (theta, phi float64) {
	n := sc.n
	for g := 0; g < n; g++ {
		it.e[g] = sc.eval(g, it.u[g])
		theta += math.Abs(it.e[g] - it.tau + it.s[g])
	}
	sum := 0.0
	for _, u := range it.u {
		sum += u
	}
	theta += math.Abs(sum - 1)

	phi = it.tau
	for g := 0; g < n; g++ {
		if it.u[g] <= 0 || it.s[g] <= 0 {
			return theta, math.Inf(1)
		}
		phi -= mu * (math.Log(it.u[g]) + math.Log(it.s[g]))
	}
	return theta, phi
}

// maxStep returns the largest alpha in (0,1] with v + alpha*dv >= (1-frac)*v
// componentwise (the fraction-to-the-boundary rule for positive variables).
func maxStep(v, dv linalg.Vector, frac float64) float64 {
	alpha := 1.0
	for i, vi := range v {
		if dv[i] < 0 {
			a := -frac * vi / dv[i]
			if a < alpha {
				alpha = a
			}
		}
	}
	if alpha <= 0 {
		alpha = 1e-16
	}
	return alpha
}

// filter is a Wächter–Biegler acceptance filter: a set of
// (infeasibility, objective) pairs that no accepted iterate may be
// dominated by.
type filterSet struct {
	entries [][2]float64
}

func (f *filterSet) reset() { f.entries = f.entries[:0] }

const (
	gammaTheta = 1e-5
	gammaPhi   = 1e-5
)

// acceptable reports whether (theta, phi) improves on every filter entry in
// at least one coordinate by the required margin.
func (f *filterSet) acceptable(theta, phi float64) bool {
	if math.IsNaN(theta) || math.IsNaN(phi) {
		return false
	}
	for _, e := range f.entries {
		if theta >= (1-gammaTheta)*e[0] && phi >= e[1]-gammaPhi*e[0] {
			return false
		}
	}
	return true
}

// add inserts an accepted pair, pruning entries it dominates.
func (f *filterSet) add(theta, phi float64) {
	kept := f.entries[:0]
	for _, e := range f.entries {
		if !(theta <= e[0] && phi <= e[1]) {
			kept = append(kept, e)
		}
	}
	f.entries = append(kept, [2]float64{theta, phi})
}

// solveNewton runs the interior-point oracle from its cold starting point
// on the units a Solver keeps active, and scatters the split back onto
// every unit.
func solveNewton(p Problem, opt newtonOptions) (Result, error) {
	var sv Solver
	if err := sv.activeSet(p); err != nil {
		return Result{}, err
	}
	x := make([]float64, len(p.Curves))
	if len(sv.active) == 1 {
		g := sv.active[0]
		x[g] = p.Total
		return Result{X: x, Tau: p.Curves[g].Eval(p.Total)}, nil
	}
	for _, g := range sv.active {
		sv.curves = append(sv.curves, p.Curves[g])
	}
	if err := sv.sc.init(Problem{Curves: sv.curves, Total: p.Total}); err != nil {
		return Result{}, err
	}
	var st newtonState
	res, err := solveIPM(&sv.sc, opt, &st)
	if err == nil {
		err = validResult(res, p.Total)
	}
	if err != nil {
		return Result{}, err
	}
	for i, g := range sv.active {
		x[g] = res.X[i]
	}
	res.X = x
	return res, nil
}
