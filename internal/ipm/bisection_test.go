package ipm

import "math"

// solveBisection is the reference the water-filling fallback is tested
// against (waterfill.go): the same bracket, growth and outer stop, with
// every root found by plain bisection: up to 128 outer halvings of the τ
// bracket, each running 80 inner halvings per unit.
func solveBisection(sc *scaled) (Result, error) {
	n := sc.n
	const eps = 1e-9

	// Bracket tau: below the fastest unit's time on almost nothing, above
	// the slowest unit's time on everything.
	lo := math.Inf(1)
	hi := 0.0
	finite := false
	for g := 0; g < n; g++ {
		v0 := sc.eval(g, eps)
		v1 := sc.eval(g, 1)
		if math.IsInf(v1, 1) || math.IsNaN(v1) {
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
		return Result{}, ErrInfeasible
	}
	if hi <= lo {
		hi = lo + 1
	}

	capacity := func(tau float64) float64 {
		var sum float64
		for g := 0; g < n; g++ {
			sum += workWithin(sc, g, tau)
		}
		return sum
	}
	// Grow hi until the cluster can absorb all work within tau=hi.
	for i := 0; i < 64 && capacity(hi) < 1; i++ {
		hi *= 2
	}

	for i := 0; i < 128 && hi-lo > 1e-14*(1+hi); i++ {
		mid := 0.5 * (lo + hi)
		if capacity(mid) >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	tau := hi
	u := make([]float64, n)
	for g := 0; g < n; g++ {
		u[g] = workWithin(sc, g, tau)
	}
	res := sc.resultInto(make([]float64, n), u, tau)
	res.KKTResidual = math.Abs(capacity(tau) - 1)
	return res, nil
}

// workWithin returns the largest scaled work u ∈ [0,1] unit g can process
// within time tau (0 if even an infinitesimal block exceeds tau).
func workWithin(sc *scaled, g int, tau float64) float64 {
	const eps = 1e-9
	if sc.eval(g, eps) > tau {
		return 0
	}
	if sc.eval(g, 1) <= tau {
		return 1
	}
	lo, hi := eps, 1.0
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		if sc.eval(g, mid) <= tau {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
