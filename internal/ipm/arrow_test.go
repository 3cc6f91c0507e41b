package ipm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"plbhec/internal/linalg"
)

// testCurve is the fitted-profile shape t(x) = a + b·x + c·ln(x+1) used
// throughout the solver tests.
type testCurve struct{ a, b, c float64 }

func (c testCurve) Eval(x float64) float64  { return c.a + c.b*x + c.c*math.Log(x+1) }
func (c testCurve) Deriv(x float64) float64 { return c.b + c.c/(x+1) }

// randomProblem builds an n-unit problem with per-unit rates spanning ~300×
// like the Table I cluster.
func randomProblem(n int, rng *rand.Rand) Problem {
	curves := make([]Curve, n)
	for g := range curves {
		b := math.Exp(rng.Float64()*5.7) * 1e-4
		curves[g] = testCurve{a: rng.Float64() * 0.01, b: b, c: rng.Float64() * b * 50}
	}
	return Problem{Curves: curves, Total: 65536}
}

// randomInterior places a strictly interior iterate with spread-out
// magnitudes, the state an IPM passes the KKT solve mid-run.
func randomInterior(sc *scaled, rng *rand.Rand) *iterate {
	n := sc.n
	it := &iterate{}
	it.resize(n)
	sum := 0.0
	for g := 0; g < n; g++ {
		it.u[g] = math.Exp(rng.NormFloat64())
		sum += it.u[g]
	}
	worst := 0.0
	for g := 0; g < n; g++ {
		it.u[g] /= sum
		if v := sc.eval(g, it.u[g]); v > worst {
			worst = v
		}
	}
	it.tau = worst * (1 + rng.Float64())
	for g := 0; g < n; g++ {
		it.s[g] = math.Max(it.tau-sc.eval(g, it.u[g]), 1e-4) * (0.5 + rng.Float64())
		it.lam[g] = math.Exp(rng.NormFloat64() * 2)
		it.z[g] = math.Exp(rng.NormFloat64() * 2)
	}
	it.nu = rng.NormFloat64()
	it.evalCurves(sc)
	return it
}

// denseStep computes the Newton direction via the dense Jacobian + LU, the
// verification oracle for the arrow elimination that every solve takes.
func denseStep(sc *scaled, it *iterate, mu float64, step linalg.Vector) error {
	dim := 4*sc.n + 2
	jac := linalg.NewMatrix(dim, dim)
	res := linalg.NewVector(dim)
	kktSystem(sc, it, mu, jac, res)
	res.Scale(-1)
	var lu linalg.LU
	if err := lu.Factor(jac); err != nil {
		return ErrIllConditioned
	}
	if err := lu.SolveInto(step, res); err != nil {
		return ErrIllConditioned
	}
	return nil
}

// TestArrowMatchesDense is the differential oracle: on randomized
// well-conditioned KKT systems the structured O(n) solve must match the
// dense LU direction to 1e-9 relative.
func TestArrowMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ws arrowWorkspace
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(39)
		p := randomProblem(n, rng)
		sc, err := newScaled(p)
		if err != nil {
			t.Fatal(err)
		}
		it := randomInterior(sc, rng)
		mu := math.Exp(rng.Float64()*8 - 9) // 1e-4 .. ~0.3

		dim := 4*n + 2
		want := linalg.NewVector(dim)
		got := linalg.NewVector(dim)
		errD := denseStep(sc, it, mu, want)
		errA := arrowSolve(sc, it, mu, &ws, got)
		if errD != nil || errA != nil {
			// Both paths must classify alike; conditioning decides which
			// random draws degenerate.
			if (errD == nil) != (errA == nil) {
				t.Fatalf("trial %d (n=%d): dense err=%v arrow err=%v", trial, n, errD, errA)
			}
			continue
		}
		scale := math.Max(1, want.NormInf())
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-9*scale {
				t.Fatalf("trial %d (n=%d): step[%d] arrow=%g dense=%g (diff %g, scale %g)",
					trial, n, i, got[i], want[i], d, scale)
			}
		}
	}
}

// TestArrowDegenerateClassifies checks that exactly singular systems return
// the same typed error class on both paths.
func TestArrowDegenerateClassifies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(6, rng)
	sc, err := newScaled(p)
	if err != nil {
		t.Fatal(err)
	}
	it := randomInterior(sc, rng)
	// u_0 = z_0 = 0 zeroes the complementarity row of unit 0: the Jacobian
	// is exactly singular however it is factored.
	it.u[0], it.z[0] = 0, 0
	it.evalCurves(sc)

	dim := 4*sc.n + 2
	step := linalg.NewVector(dim)
	if err := denseStep(sc, it, 1e-3, step); !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("dense err = %v, want ErrIllConditioned", err)
	}
	var ws arrowWorkspace
	if err := arrowSolve(sc, it, 1e-3, &ws, step); !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("arrow err = %v, want ErrIllConditioned", err)
	}
}

// kktSystem builds the dense Jacobian and residual of the perturbed KKT
// conditions at the current iterate (jac is reshaped and zeroed, res
// overwritten). Variable order: u(0..n-1), tau(n), s(n+1..2n),
// lam(2n+1..3n), z(3n+1..4n), nu(4n+1).
func kktSystem(sc *scaled, it *iterate, mu float64, jac *linalg.Matrix, res linalg.Vector) {
	n := sc.n
	dim := 4*n + 2
	jac.Reset(dim, dim)
	for i := range res {
		res[i] = 0
	}

	iU := func(g int) int { return g }
	iTau := n
	iS := func(g int) int { return n + 1 + g }
	iLam := func(g int) int { return 2*n + 1 + g }
	iZ := func(g int) int { return 3*n + 1 + g }
	iNu := 4*n + 1

	for g := 0; g < n; g++ {
		d1 := sc.deriv(g, it.u[g])
		d2 := sc.deriv2(g, it.u[g])

		// Stationarity wrt u_g: lam_g*E'_g + nu - z_g = 0.
		r := iU(g)
		res[r] = it.lam[g]*d1 + it.nu - it.z[g]
		jac.Set(r, iU(g), it.lam[g]*d2)
		jac.Set(r, iLam(g), d1)
		jac.Set(r, iZ(g), -1)
		jac.Set(r, iNu, 1)

		// Inequality primal feasibility: E_g(u_g) - tau + s_g = 0.
		r = iS(g)
		res[r] = sc.eval(g, it.u[g]) - it.tau + it.s[g]
		jac.Set(r, iU(g), d1)
		jac.Set(r, iTau, -1)
		jac.Set(r, iS(g), 1)

		// Complementarity u_g*z_g = mu.
		r = iZ(g)
		res[r] = it.u[g]*it.z[g] - mu
		jac.Set(r, iU(g), it.z[g])
		jac.Set(r, iZ(g), it.u[g])

		// Complementarity s_g*lam_g = mu.
		r = iLam(g)
		res[r] = it.s[g]*it.lam[g] - mu
		jac.Set(r, iS(g), it.lam[g])
		jac.Set(r, iLam(g), it.s[g])
	}

	// Stationarity wrt tau: 1 - sum(lam) = 0.
	res[iTau] = 1
	for g := 0; g < n; g++ {
		res[iTau] -= it.lam[g]
		jac.Set(iTau, iLam(g), -1)
	}

	// Equality: sum(u) - 1 = 0.
	res[iNu] = -1
	for g := 0; g < n; g++ {
		res[iNu] += it.u[g]
		jac.Set(iNu, iU(g), 1)
	}
}

// newScaled returns the scaled view of p, as a Solver builds it.
func newScaled(p Problem) (*scaled, error) {
	var s scaled
	if err := s.init(p); err != nil {
		return nil, err
	}
	return &s, nil
}
