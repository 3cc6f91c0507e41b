package ipm

import "math"

// This file is the solver: water-filling on the makespan. For
// non-decreasing time curves the work x_g(τ) a unit can finish within τ is
// non-decreasing in τ, so the τ with capacity(τ) = Σ x_g(τ) = 1 is the root
// of a monotone function of one variable, and each x_g(τ) is the root of
// E_g(x) = τ. Both roots are found by safeguarded secant steps on the
// search's last two iterates, with regula falsi and bisection only as the
// safeguard (see secant), and each unit searches only between its answers
// at the two ends of the current τ bracket. This always produces a
// feasible split; near the root the τ bracket is narrow, so most units
// converge in two or three curve evaluations, and a unit whose answers at
// both ends agree costs none.

// fillEps is the smallest scaled block a unit is probed at: x_g(τ) = 0 when
// even this much work takes longer than τ.
const fillEps = 1e-9

// fillEnd holds every unit's answer at one makespan τ: x[g] = x_g(τ) and
// e[g] = Ê_g(x[g]) (Ê_g(ε) where x[g] = 0).
type fillEnd struct {
	x, e []float64
}

func (f *fillEnd) resize(n int) {
	f.x = resizeVec(f.x, n)
	f.e = resizeVec(f.e, n)
}

// fillState owns the water-filling buffers, reused across a Solver's solves.
type fillState struct {
	e0, e1        []float64 // Ê_g(ε) and Ê_g(1)
	lo, hi, trial fillEnd   // answers at the bracket ends and at the trial τ
	roots         int       // the unit roots the last solve searched for
}

func (w *fillState) resize(n int) {
	w.e0 = resizeVec(w.e0, n)
	w.e1 = resizeVec(w.e1, n)
	w.lo.resize(n)
	w.hi.resize(n)
	w.trial.resize(n)
}

// resizeVec returns v with length n, reusing its backing array when the
// capacity allows. Contents are unspecified; callers overwrite them.
func resizeVec(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// solve brackets the scaled makespan τ at which the capacity Σ x_g(τ)
// reaches 1 to within 1e-14·(1+τ), and returns the upper end τ, its
// capacity and the number of trial τ passes after the two initial bracket
// ends, leaving u_g = x_g(τ) in w.hi.x.
func (w *fillState) solve(sc *scaled) (tau, capacity float64, steps int, err error) {
	n := sc.n
	w.resize(n)
	w.roots = 0

	// Bracket tau: below the fastest unit's time on almost nothing, and at
	// the least time any unit takes for everything, where that unit alone
	// absorbs all the work.
	lo, hi := math.Inf(1), math.Inf(1)
	finite := false
	for g := 0; g < n; g++ {
		v0 := sc.eval(g, fillEps)
		v1 := sc.eval(g, 1)
		w.e0[g], w.e1[g] = v0, v1
		if math.IsInf(v1, 1) {
			continue
		}
		finite = true
		if v0 < lo {
			lo = v0
		}
		if v1 < hi {
			hi = v1
		}
	}
	if !finite {
		return 0, 0, 0, ErrInfeasible
	}
	if hi <= lo {
		hi = lo + 1
	}

	capLo := w.pass(sc, lo, nil, nil, &w.lo)
	capHi := w.pass(sc, hi, &w.lo, nil, &w.hi)

	// Grow hi until the cluster can absorb all work within tau=hi; each
	// too-small hi becomes the lower end.
	for i := 0; i < 64 && capHi < 1; i++ {
		lo, capLo = hi, capHi
		w.lo, w.hi = w.hi, w.lo
		hi *= 2
		capHi = w.pass(sc, hi, &w.lo, nil, &w.hi)
		steps++
	}

	// Secant steps on capacity(τ) − 1, which is < 0 at lo and ≥ 0 at hi.
	// Bisection comes at least every fourth step, so 512 steps reach the
	// stop width from any bracket of finite times.
	var r secant
	r.reset(1, lo, capLo, hi, capHi)
	for i := 0; i < 512 && r.b-r.a > 1e-14*(1+r.b); i++ {
		t := r.next(0.5e-14 * (1 + math.Abs(r.x1)))
		c := w.pass(sc, t, &w.lo, &w.hi, &w.trial)
		if c >= 1 {
			capHi = c
			w.hi, w.trial = w.trial, w.hi
		} else {
			w.lo, w.trial = w.trial, w.lo
		}
		r.update(t, c, c < 1)
		steps++
	}
	return r.b, capHi, steps, nil
}

// pass computes x_g(τ) for every unit into out and returns the capacity
// Σ x_g(τ). lower holds the answers at a smaller τ (nil: none known) and
// upper those at a larger one (nil: search all of [ε, 1]).
func (w *fillState) pass(sc *scaled, tau float64, lower, upper, out *fillEnd) float64 {
	var sum float64
	for g := range out.x {
		xa, ea := 0.0, 0.0
		if lower != nil {
			xa, ea = lower.x[g], lower.e[g]
		}
		xb, eb := 1.0, w.e1[g]
		if upper != nil {
			xb, eb = upper.x[g], upper.e[g]
		}
		out.x[g], out.e[g] = w.within(sc, g, tau, xa, ea, xb, eb)
		sum += out.x[g]
	}
	return sum
}

// within returns x_g(τ) — the largest scaled work u ∈ [0,1] unit g can
// process within τ, or 0 if even an infinitesimal block exceeds τ — and
// Ê_g there. The answer lies in [xa, xb]: xa is 0 or a point with
// Ê_g(xa) = ea ≤ τ, and xb is 1 or the answer at some makespan ≥ τ, with
// Ê_g(xb) = eb.
func (w *fillState) within(sc *scaled, g int, tau, xa, ea, xb, eb float64) (x, e float64) {
	if e0 := w.e0[g]; e0 > tau {
		return 0, e0
	} else if xa == 0 {
		xa, ea = fillEps, e0
	}
	if eb <= tau {
		return xb, eb
	}
	// Secant steps on Ê_g(x) − τ, ≤ 0 at xa and > 0 at xb, down to a few
	// ulps.
	w.roots++
	var r secant
	r.reset(tau, xa, ea, xb, eb)
	for r.b-r.a > 0x1p-50*r.b {
		x := r.next(0x1p-51 * r.x1)
		e := sc.eval(g, x)
		if e <= tau {
			ea = e
		}
		r.update(x, e, e <= tau)
	}
	return r.a, ea
}

// secant is a safeguarded secant search for where y(x) crosses a target t,
// on a bracket [a, b] with y low (≤ t, or < t) at a and high at b. Each
// step is the secant through the last two iterates, the bracket ends at
// first, taken when it lands strictly inside the bracket and moves less
// than half as far as the step before the last one. Otherwise the step is
// regula falsi on the bracket ends, or bisection when that misses too, and
// bisection whenever three steps in a row have not halved the bracket; a
// bracket that spans more than a factor of two is bisected at its geometric
// mean.
//
// On a bracket that spans more than a factor of two, across which y is
// positive and grows by a larger factor than x, the regula falsi
// interpolates ln y linearly in ln x instead. A steep curve such as y ∝ x⁴
// rises by many orders of magnitude across such a bracket, so a straight
// line through its ends crosses t next to the low end, and each step moves
// the bracket by a sliver; the line in ln-ln lands on the root of any power
// law. Where y grows more slowly than x, as a line with an intercept does,
// the straight line is the better guess.
//
// Secant steps approach a root from one side, so they alone rarely shrink
// the bracket to the stop width. When a secant step would land within tol
// of the newest iterate, that iterate is the root to the caller's
// tolerance, and the step goes tol past it instead: that closes the
// bracket when the root lies between.
type secant struct {
	t            float64 // the target
	a, b, fa, fb float64 // the bracket and y − t at its ends
	ya, yb       float64 // y at the bracket ends
	x0, f0       float64 // the iterate before the newest
	x1, f1       float64 // the newest iterate
	low          bool    // whether x1 is the low end
	step, prev   float64 // the lengths of the last two steps
	ref          float64 // the width when it last halved
	stale        int     // steps since then
}

// reset starts a search for target t on [a, b], where y is ya and yb.
func (r *secant) reset(t, a, ya, b, yb float64) {
	w := b - a
	fa, fb := ya-t, yb-t
	r.t, r.ya, r.yb = t, ya, yb
	r.a, r.b, r.fa, r.fb = a, b, fa, fb
	r.step, r.prev, r.ref, r.stale = w, w, w, 0
	// The end nearer the root, by function value, is the newer iterate.
	if math.Abs(fa) < math.Abs(fb) {
		r.x0, r.f0, r.x1, r.f1, r.low = b, fb, a, fa, true
	} else {
		r.x0, r.f0, r.x1, r.f1, r.low = a, fa, b, fb, false
	}
}

// next returns the next trial point, strictly inside (a, b) while the
// bracket spans more than a few ulps. tol is half the width at which the
// caller stops, at the newest iterate.
func (r *secant) next(tol float64) float64 {
	if r.stale < 3 {
		s := r.x1 - r.f1*(r.x1-r.x0)/(r.f1-r.f0)
		if d := math.Abs(s - r.x1); d <= tol {
			if r.low {
				s = r.x1 + tol
			} else {
				s = r.x1 - tol
			}
		} else if !(d < 0.5*r.prev) {
			s = math.NaN()
		}
		if s > r.a && s < r.b {
			return s
		}
		if s := r.falsi(); s > r.a && s < r.b {
			return s
		}
	}
	if r.wide() {
		return math.Sqrt(r.a) * math.Sqrt(r.b)
	}
	return 0.5 * (r.a + r.b)
}

// wide reports whether the bracket spans more than a factor of two.
func (r *secant) wide() bool { return r.a > 0 && r.b > 2*r.a }

// falsi is the regula falsi step on the bracket ends: in ln y over ln x
// when the bracket is wide and y, positive, grows faster than x across it,
// else linear.
func (r *secant) falsi() float64 {
	if r.wide() && r.ya > 0 && r.t > 0 && r.yb/r.ya > r.b/r.a {
		la, lya := math.Log(r.a), math.Log(r.ya)
		return math.Exp(la + (math.Log(r.t)-lya)*(math.Log(r.b)-la)/(math.Log(r.yb)-lya))
	}
	return r.b - r.fb*(r.b-r.a)/(r.fb-r.fa)
}

// update replaces the low end (low) or the high end with x, where y is y.
func (r *secant) update(x, y float64, low bool) {
	f := y - r.t
	if low {
		r.a, r.fa, r.ya = x, f, y
	} else {
		r.b, r.fb, r.yb = x, f, y
	}
	r.prev, r.step = r.step, math.Abs(x-r.x1)
	r.x0, r.f0, r.x1, r.f1, r.low = r.x1, r.f1, x, f, low
	if w := r.b - r.a; w <= 0.5*r.ref {
		r.ref, r.stale = w, 0
	} else {
		r.stale++
	}
}
