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
			tau, _, err := w.solve(sc)
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

			var st solveState
			res, err := solveWaterFill(sc, &st)
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
	sv := NewSolver(Options{DisableIPM: true})
	for i := 0; i < 3; i++ {
		res, err := sv.Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.UsedFallback {
			t.Fatal("DisableIPM solve did not use the fallback")
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

// BenchmarkFallbackSolve times a water-filling solve (DisableIPM) at a warm
// size, reporting the curve evaluations it makes next to ns/op.
func BenchmarkFallbackSolve(b *testing.B) {
	for _, n := range []int{1024, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(31))
			p := randomProblem(n, rng)
			var evals int64
			for g, c := range p.Curves {
				p.Curves[g] = countingCurve{Curve: c, evals: &evals}
			}
			sv := NewSolver(Options{DisableIPM: true})
			if _, err := sv.Solve(p); err != nil {
				b.Fatal(err)
			}
			evals = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sv.Solve(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}
