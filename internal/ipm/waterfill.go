package ipm

import "math"

// This file is the robust fallback: water-filling on the makespan. For
// monotone time curves the work x_g(τ) a unit can finish within τ is
// monotone in τ, so the τ with capacity(τ) = Σ x_g(τ) = 1 is the root of a
// monotone function of one variable, and each x_g(τ) is the root of
// E_g(x) = τ. Both roots are found by safeguarded regula falsi (the
// Illinois variant, with a bisection step whenever a secant step fails to
// halve the bracket), and each unit searches only between its answers at
// the two ends of the current τ bracket. This always produces a feasible
// split; near the root the τ bracket is narrow, so most units converge in
// a couple of curve evaluations, and a unit whose answers at both ends
// agree costs none.

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

// fillState owns the fallback's buffers, reused across a Solver's solves.
type fillState struct {
	e0, e1        []float64 // Ê_g(ε) and Ê_g(1)
	lo, hi, trial fillEnd   // answers at the bracket ends and at the trial τ
}

func (w *fillState) resize(n int) {
	w.e0 = resizeVec(w.e0, n)
	w.e1 = resizeVec(w.e1, n)
	w.lo.resize(n)
	w.hi.resize(n)
	w.trial.resize(n)
}

// solveWaterFill returns the equal-finish-time split whose capacity reaches
// 1 at the smallest τ the bracket resolves. Result.X aliases st.x.
func solveWaterFill(sc *scaled, st *solveState) (Result, error) {
	tau, capacity, err := st.fill.solve(sc)
	if err != nil {
		return Result{}, err
	}
	st.x = resizeVec(st.x, sc.n)
	res := sc.resultInto(st.x, st.fill.hi.x, tau)
	res.KKTResidual = math.Abs(capacity - 1)
	return res, nil
}

// solve brackets the scaled makespan τ at which the capacity Σ x_g(τ)
// reaches 1 to within 1e-14·(1+τ), and returns the upper end τ and its
// capacity, leaving u_g = x_g(τ) in w.hi.x.
func (w *fillState) solve(sc *scaled) (tau, capacity float64, err error) {
	n := sc.n
	w.resize(n)

	// Bracket tau: below the fastest unit's time on almost nothing, above
	// the slowest unit's time on everything.
	lo := math.Inf(1)
	hi := 0.0
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
		if v1 > hi {
			hi = v1
		}
	}
	if !finite {
		return 0, 0, ErrInfeasible
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
	}

	// Regula falsi on capacity(τ) − 1, which is < 0 at lo and ≥ 0 at hi.
	// 512 steps halve the bracket at least 128 times.
	r := newFalsi(lo, capLo-1, hi, capHi-1)
	for i := 0; i < 512 && r.b-r.a > 1e-14*(1+r.b); i++ {
		t := r.next()
		c := w.pass(sc, t, &w.lo, &w.hi, &w.trial)
		if c >= 1 {
			capHi = c
			w.hi, w.trial = w.trial, w.hi
		} else {
			w.lo, w.trial = w.trial, w.lo
		}
		r.update(t, c-1, c < 1)
	}
	return r.b, capHi, nil
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
	// Regula falsi on Ê_g(x) − τ, ≤ 0 at xa and > 0 at xb, down to a few
	// ulps.
	r := newFalsi(xa, ea-tau, xb, eb-tau)
	for r.b-r.a > 0x1p-50*r.b {
		x := r.next()
		e := sc.eval(g, x)
		if e <= tau {
			ea = e
		}
		r.update(x, e-tau, e <= tau)
	}
	return r.a, ea
}

// falsi is safeguarded regula falsi (the Illinois variant) on a bracket
// [a, b] of a root, with the function low (≤ 0, or < 0) at a and high at
// b. fa and fb are the secant weights: they start as the function values,
// and the end kept twice in a row has its weight halved, so that both ends
// converge. Whenever three steps in a row have not halved the bracket, the
// next step bisects, so the width halves at least every four steps.
type falsi struct {
	a, b, fa, fb float64
	side         int     // -1: the last step moved a; +1: it moved b
	ref          float64 // the width when it last halved
	stale        int     // steps since then
	bisect       bool
}

func newFalsi(a, fa, b, fb float64) falsi {
	return falsi{a: a, b: b, fa: fa, fb: fb, ref: b - a}
}

// next returns the next trial point, strictly inside (a, b) while the
// bracket spans more than a few ulps.
func (r *falsi) next() float64 {
	if !r.bisect {
		if s := r.b - r.fb*(r.b-r.a)/(r.fb-r.fa); s > r.a && s < r.b {
			return s
		}
	}
	return 0.5 * (r.a + r.b)
}

// update replaces the low end (low) or the high end with x, where the
// function is f.
func (r *falsi) update(x, f float64, low bool) {
	if low {
		r.a, r.fa = x, f
		if r.side < 0 {
			r.fb /= 2
		}
		r.side = -1
	} else {
		r.b, r.fb = x, f
		if r.side > 0 {
			r.fa /= 2
		}
		r.side = 1
	}
	r.bisect = false
	if w := r.b - r.a; w <= 0.5*r.ref {
		r.ref, r.stale = w, 0
	} else if r.stale++; r.stale >= 3 {
		r.bisect, r.ref, r.stale = true, w, 0
	}
}
