package ipm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kinkCurve has the shape of a fitted profile.Model: a quadratic
// E(x) = a + b·x + c·x² floored at floor·x everywhere and capped at cap·x
// beyond maxS, with the derivative of whichever piece is active.
type kinkCurve struct{ a, b, c, floor, cap, maxS float64 }

func (k kinkCurve) Eval(x float64) float64 {
	v := k.a + k.b*x + k.c*x*x
	if f := k.floor * x; v < f {
		return f
	}
	if x > k.maxS && k.cap > 0 {
		if c := k.cap * x; v > c {
			return c
		}
	}
	return v
}

func (k kinkCurve) Deriv(x float64) float64 {
	v := k.a + k.b*x + k.c*x*x
	if v < k.floor*x {
		return k.floor
	}
	if x > k.maxS && k.cap > 0 && v > k.cap*x {
		return k.cap
	}
	return k.b + 2*k.c*x
}

// flatCurve takes the same time for any block.
type flatCurve float64

func (f flatCurve) Eval(x float64) float64  { return float64(f) }
func (f flatCurve) Deriv(x float64) float64 { return 0 }

// steepCurve is E(x) = k·x⁴.
type steepCurve float64

func (k steepCurve) Eval(x float64) float64  { return float64(k) * x * x * x * x }
func (k steepCurve) Deriv(x float64) float64 { return 4 * float64(k) * x * x * x }

// randomFittedProblem draws n monotone curves over a Total of work: kinked
// fitted models (floor and cap active at random), with a few flat, steep
// and failed (+Inf) units mixed in.
func randomFittedProblem(n int, rng *rand.Rand) Problem {
	const total = 65536.0
	curves := make([]Curve, n)
	for g := range curves {
		speed := math.Exp(rng.Float64() * 5.7)
		switch r := rng.Float64(); {
		case r < 0.03:
			curves[g] = infCurve{}
		case r < 0.06:
			curves[g] = flatCurve(speed * (0.5 + rng.Float64()) / float64(n))
		case r < 0.09:
			curves[g] = steepCurve(speed * math.Pow(float64(n)/total, 4))
		default:
			k := kinkCurve{a: rng.Float64() * 1e-3, b: speed * 1e-4 / float64(n)}
			if rng.Intn(2) == 0 {
				k.c = k.b / total * rng.Float64() * 4
			}
			if rng.Intn(3) == 0 {
				// A floor above the linear rate binds beyond a/(floor−b).
				k.floor = k.b * (1.5 + rng.Float64())
			}
			if k.c > 0 && rng.Intn(2) == 0 {
				// A cap that meets the quadratic at or beyond maxS keeps
				// the curve continuous, as twice the slowest observed rate
				// does for a fitted model.
				k.maxS = total * (0.01 + 0.2*rng.Float64())
				k.cap = k.Eval(k.maxS) / k.maxS * (1 + 0.5*rng.Float64())
			}
			curves[g] = k
		}
	}
	// At least one unit that can finish anything.
	curves[rng.Intn(n)] = linear(1e-4, 0)
	return Problem{Curves: curves, Total: total}
}

// TestWaterFillMatchesBisection checks the bracketed water-filling against
// the nested bisection it replaced (bisection_test.go): the same makespan
// to 1e-12 relative (or the two brackets' stop width, where wider), every
// unit's work equal to the bisection's answer at that makespan, and a split
// that sums to Total.
func TestWaterFillMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sizes := []int{2, 3, 5, 8, 17, 64, 257, 1000, 10000}
	for _, n := range sizes {
		trials := 1
		if n <= 1000 {
			trials = 20
		}
		for trial := 0; trial < trials; trial++ {
			p := randomFittedProblem(n, rng)
			sc, err := newScaled(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solveBisection(sc)
			if err != nil {
				t.Fatalf("n=%d trial %d: bisection: %v", n, trial, err)
			}
			var w fillState
			tau, _, _, err := w.solve(sc)
			if err != nil {
				t.Fatalf("n=%d trial %d: water-filling: %v", n, trial, err)
			}
			// Both stop once the bracket is within 1e-14·(1+τ) in scaled
			// time, which is wider than 1e-12 relative where τ ≪ 1.
			got := tau * sc.timeScale
			tol := 1e-12*want.Tau + 2e-14*(1+tau)*sc.timeScale
			if d := math.Abs(got - want.Tau); d > tol {
				t.Fatalf("n=%d trial %d: tau %.17g, bisection %.17g (rel %g)", n, trial, got, want.Tau, d/want.Tau)
			}
			for g, u := range w.hi.x {
				ref := workWithin(sc, g, tau)
				if d := math.Abs(u - ref); d > 1e-14*ref {
					t.Fatalf("n=%d trial %d: u[%d] = %.17g, bisection %.17g at the same tau (%T)",
						n, trial, g, u, ref, p.Curves[g])
				}
			}

			res, err := Solve(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, x := range res.X {
				sum += x
			}
			if math.Abs(sum-p.Total) > 1e-9*p.Total {
				t.Fatalf("n=%d trial %d: split sums to %g, want %g", n, trial, sum, p.Total)
			}
		}
	}
}

// TestFallbackZeroAlloc pins a water-filling solve at a warm size at zero
// heap allocations per call (CI zero-alloc gate).
func TestFallbackZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := randomFittedProblem(64, rng)
	sv := NewSolver(Options{})
	for i := 0; i < 3; i++ {
		if _, err := sv.Solve(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sv.Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fallback solve allocates %.1f times per call, want 0", allocs)
	}
}

// countingCurve counts the evaluations of the curve it wraps.
type countingCurve struct {
	Curve
	evals *int64
}

func (c countingCurve) Eval(x float64) float64 {
	*c.evals++
	return c.Curve.Eval(x)
}

// BenchmarkFallbackSolve times a water-filling solve at a warm size,
// reporting the curve evaluations and τ steps it makes next to ns/op.
func BenchmarkFallbackSolve(b *testing.B) {
	for _, n := range []int{1024, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(31))
			p := randomProblem(n, rng)
			var evals int64
			for g, c := range p.Curves {
				p.Curves[g] = countingCurve{Curve: c, evals: &evals}
			}
			sv := NewSolver(Options{})
			if _, err := sv.Solve(p); err != nil {
				b.Fatal(err)
			}
			evals = 0
			steps := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sv.Solve(p)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Iterations
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
			b.ReportMetric(float64(steps)/float64(b.N), "tau-steps/op")
		})
	}
}

// stairCurve is a non-decreasing staircase, E(x) = b·x + h·⌊x/w⌋: its
// derivative b says nothing about the jumps, which stalls Newton.
type stairCurve struct{ b, h, w float64 }

func (c stairCurve) Eval(x float64) float64  { return c.b*x + c.h*math.Floor(x/c.w) }
func (c stairCurve) Deriv(x float64) float64 { return c.b }

// makespan is the latest finish time over the units a split gives work.
func makespan(p Problem, x []float64) float64 {
	m := 0.0
	for g, xg := range x {
		if xg > 0 {
			m = math.Max(m, p.Curves[g].Eval(xg))
		}
	}
	return m
}

// TestWaterFillMatchesNewton checks the water-filling solver against the
// interior-point oracle (newton_oracle_test.go) on random
// fitted-shape problems from 2 to 10,000 units, a tenth of them with some
// staircase curves.
//
// The oracle solves the NLP as written, where every active unit, even one
// that gets no work, must have E_g(0) ≤ τ; water-filling counts only the
// units that get work. So wherever Newton converges, its τ equals
// max(τ*, max_g E_g(0)) to the oracle's tolerance, in scaled time. Wherever
// it stalls, no random feasible split, and no small move of work between
// two units of the water-filling split, finishes before τ*.
func TestWaterFillMatchesNewton(t *testing.T) {
	oracleTol := newtonOptions{}.withDefaults().Tol
	rng := rand.New(rand.NewSource(17))
	var converged, stalled int
	for _, n := range []int{2, 3, 5, 8, 17, 64, 257, 1000, 10000} {
		trials := 1
		if n <= 1000 {
			trials = 20
		}
		for trial := 0; trial < trials; trial++ {
			p := randomFittedProblem(n, rng)
			if trial%10 == 9 {
				for g := range p.Curves {
					if rng.Intn(4) == 0 {
						b := math.Exp(rng.Float64()*5.7) * 1e-4 / float64(n)
						p.Curves[g] = stairCurve{b: b, h: b * p.Total / float64(n), w: p.Total / float64(n) * (0.5 + rng.Float64())}
					}
				}
			}
			res, err := Solve(p, Options{})
			if err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
			tau := res.Tau
			if got := makespan(p, res.X); got > tau*(1+1e-12) {
				t.Fatalf("n=%d trial %d: split finishes at %g, after τ = %g", n, trial, got, tau)
			}

			// The active units' scaled view, as the solver built it.
			var sv Solver
			if err := sv.activeSet(p); err != nil {
				t.Fatal(err)
			}
			for _, g := range sv.active {
				sv.curves = append(sv.curves, p.Curves[g])
			}
			sc := &sv.sc
			if err := sc.init(Problem{Curves: sv.curves, Total: p.Total}); err != nil {
				t.Fatal(err)
			}
			// τ* lies in the final bracket, at most 1e-14·(1+τ̂) below τ in
			// scaled time; no split finishes before its lower end.
			lower := tau - 2e-14*(sc.timeScale+tau)

			oracle, err := solveNewton(p, newtonOptions{})
			if err == nil {
				converged++
				want := tau / sc.timeScale
				for g := range sv.curves {
					want = math.Max(want, sc.eval(g, 0))
				}
				if d := math.Abs(oracle.Tau/sc.timeScale - want); d > 100*oracleTol {
					t.Fatalf("n=%d trial %d: Newton τ %.10g, water-filling τ %.10g (scaled gap %g)",
						n, trial, oracle.Tau/sc.timeScale, want, d)
				}
				continue
			}
			stalled++
			// Random feasible splits over the units that can take work.
			x := make([]float64, n)
			for k := 0; k < 200; k++ {
				var sum float64
				for g := range x {
					x[g] = 0
					if !math.IsInf(p.Curves[g].Eval(p.Total/float64(n)), 1) {
						x[g] = -math.Log(rng.Float64())
						sum += x[g]
					}
				}
				for g := range x {
					x[g] *= p.Total / sum
				}
				if m := makespan(p, x); m < lower {
					t.Fatalf("n=%d trial %d: a random split finishes at %g, before τ = %g", n, trial, m, tau)
				}
			}
			// Small moves of work between two units of the optimal split.
			for k := 0; k < 200; k++ {
				copy(x, res.X)
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j || x[i] == 0 || math.IsInf(p.Curves[j].Eval(p.Total), 1) {
					continue
				}
				d := x[i] * rng.Float64() * 0.01
				x[i] -= d
				x[j] += d
				if m := makespan(p, x); m < lower {
					t.Fatalf("n=%d trial %d: moving %g units %d→%d finishes at %g, before τ = %g",
						n, trial, d, i, j, m, tau)
				}
			}
		}
	}
	if converged == 0 || stalled == 0 {
		t.Fatalf("Newton converged on %d and stalled on %d problems; want both", converged, stalled)
	}
	t.Logf("Newton converged on %d problems and stalled on %d", converged, stalled)
}

// TestSolveEvalBudget bounds the water-filling's work, which it counts
// deterministically. Result.Evaluations must equal the curve evaluations
// the solve really made. On random fitted-shape problems, each unit root a
// solve searches for costs at most six evaluations on average, at 1,000
// and at 10,000 units, where half of the searches are the x⁴ units'; the
// Illinois regula falsi this search replaced took over 20 on such
// problems. On the smooth solveNShape problems the solve takes no more τ
// steps than the regula falsi did.
func TestSolveEvalBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, c := range []struct {
		n      int
		budget float64
	}{{1000, 6}, {10000, 6}} {
		var evals, roots int
		for trial := 0; trial < 3; trial++ {
			p := randomFittedProblem(c.n, rng)
			var counted int64
			for g, cv := range p.Curves {
				p.Curves[g] = countingCurve{Curve: cv, evals: &counted}
			}
			res, err := Solve(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if int64(res.Evaluations) != counted {
				t.Fatalf("n=%d: Result.Evaluations = %d, the curves counted %d", c.n, res.Evaluations, counted)
			}
			// The searches make every evaluation but the scaling's one
			// and the bracket's two per unit.
			sc, err := newScaled(p)
			if err != nil {
				t.Fatal(err)
			}
			var w fillState
			if _, _, _, err := w.solve(sc); err != nil {
				t.Fatal(err)
			}
			evals += sc.evals - 3*c.n
			roots += w.roots
		}
		mean := float64(evals) / float64(roots)
		t.Logf("n=%d: %.2f evaluations per searched root over %d roots", c.n, mean, roots)
		if mean > c.budget {
			t.Errorf("n=%d: %.2f evaluations per searched root, budget %g", c.n, mean, c.budget)
		}
	}

	// The regula falsi's τ steps on each shape.
	for n, max := range map[int]int{4: 8, 16: 9, 64: 8, 256: 9, 1024: 9} {
		res, err := Solve(solveNShape(n), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations > max {
			t.Errorf("n=%d: %d τ steps, the regula falsi took %d", n, res.Iterations, max)
		}
	}
}

// logCurve is E(x) = a + b·x + c·ln(x+1), strictly increasing.
type logCurve struct{ a, b, c float64 }

func (c logCurve) Eval(x float64) float64 { return c.a + c.b*x + c.c*math.Log(x+1) }

// solveNShape is the n-unit problem the root package's BenchmarkSolveN
// solves: speeds spanning ~3 orders of magnitude, like a maximally
// heterogeneous cluster.
func solveNShape(n int) Problem {
	rng := rand.New(rand.NewSource(42 + int64(n)))
	curves := make([]Curve, n)
	for g := range curves {
		curves[g] = logCurve{
			a: rng.Float64() * 1e-3,
			b: math.Exp(rng.Float64()*5.7) * 1e-4,
			c: rng.Float64() * 1e-2,
		}
	}
	return Problem{Curves: curves, Total: 65536}
}
