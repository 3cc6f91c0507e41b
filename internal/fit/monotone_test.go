package fit

import (
	"math"
	"math/rand"
	"testing"

	"plbhec/internal/linalg"
)

// gridMonotone is the reference for MonotoneNonDecreasing: a grid of steps
// points over [lo, hi] that allows each step to fall by the same slope
// tolerance the exact check uses, 1e-12·(|y|+1)·64/(hi−lo) per unit of x.
func gridMonotone(m Model, lo, hi float64, steps int) bool {
	dx := (hi - lo) / float64(steps)
	prev := m.Eval(lo)
	for i := 1; i <= steps; i++ {
		y := m.Eval(lo + dx*float64(i))
		if y < prev-1e-12*(math.Abs(prev)+1)*64/(hi-lo)*dx {
			return false
		}
		prev = y
	}
	return true
}

// TestMonotoneCatchesDipBetweenGridPoints: E(x) = (x−½)³ − 0.03·x rises
// from every integer to the next, so a 64-point grid over [0, 64] sees it
// rise, but it falls on (0.4, 0.6), around the vertex of its derivative.
func TestMonotoneCatchesDipBetweenGridPoints(t *testing.T) {
	const delta = 0.03
	m := Model{
		Bases: []Basis{basisOne, basisX, basisX2, basisX3},
		Coef:  linalg.Vector{-0.125, 0.75 - delta, -1.5, 1},
		Scale: 64,
	}
	if !gridMonotone(m, 0, 64, 64) {
		t.Fatal("the 64-point grid sees the dip; the case does not test anything")
	}
	if m.Eval(0.6) >= m.Eval(0.4) {
		t.Fatalf("E(0.6) = %g ≥ E(0.4) = %g: no dip", m.Eval(0.6), m.Eval(0.4))
	}
	if m.MonotoneNonDecreasing(0, 64) {
		t.Error("a model that falls on (0.4, 0.6) passed as non-decreasing")
	}
}

// TestMonotoneToleranceEdges: a flat model, and a line that falls exactly
// at the tolerance, pass; a line one part in a million steeper does not.
func TestMonotoneToleranceEdges(t *testing.T) {
	line := func(c0, c1 float64) Model {
		return Model{Bases: []Basis{basisOne, basisX}, Coef: linalg.Vector{c0, c1}, Scale: 64}
	}
	if !line(3, 0).MonotoneNonDecreasing(0, 64) {
		t.Error("flat model rejected")
	}
	// Over [0, 64] the tolerance is 1e-12·(|E|+1): at x = 0, where E = 0,
	// exactly 1e-12.
	if !line(0, -1e-12).MonotoneNonDecreasing(0, 64) {
		t.Error("a slope exactly at the tolerance was rejected")
	}
	if line(0, -1.000001e-12).MonotoneNonDecreasing(0, 64) {
		t.Error("a slope beyond the tolerance was accepted")
	}
}

// TestMonotoneChecksBothSidesOfClamps: a clamped basis is constant below
// its clamp, so the derivative jumps there, and a dip can sit on either
// side of the jump while both ends of the range rise.
func TestMonotoneChecksBothSidesOfClamps(t *testing.T) {
	// {1, x, 1/x} over [0.01, 64] with scale 64: 1/x is constant below
	// 0.064, and E = x + 0.01/x falls from there to x = 0.1.
	right := Model{Bases: []Basis{basisOne, basisX, basisInv}, Coef: linalg.Vector{0, 1, 0.01}, Scale: 64}
	if right.Slope(0.01) < 0 || right.Slope(64) < 0 || right.Slope(0.064) >= 0 {
		t.Fatal("the case does not put the dip just above the clamp")
	}
	if right.MonotoneNonDecreasing(0.01, 64) {
		t.Error("a dip just above the 1/x clamp passed")
	}
	// {1, x, x², ln x} over [0, 64]: ln x is constant below 1e-9, where
	// E = c + 1e-10·x − x² falls just below the clamp; above it the
	// 8192·ln x term rises until x = 64.
	left := Model{
		Bases: []Basis{basisOne, basisX, basisX2, basisLog},
		Coef:  linalg.Vector{-8192 * math.Log(minPos), 1e-10, -1, 8192},
		Scale: 64,
	}
	p := math.Nextafter(minPos, 0)
	if left.Slope(0) < 0 || left.Slope(64) < 0 || left.Slope(minPos) < 0 || left.Slope(p) >= 0 {
		t.Fatal("the case does not put the dip just below the clamp")
	}
	if left.MonotoneNonDecreasing(0, 64) {
		t.Error("a dip just below the ln x clamp passed")
	}
}

// TestMonotoneMatchesDenseGrid: for every candidate set, on random
// coefficients and ranges, the exact check agrees with a 10⁵-point grid.
// Each coefficient is scaled by its basis's size at hi so that every term
// matters.
func TestMonotoneMatchesDenseGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range candidates {
		bases := c.bases
		var up, down int
		for trial := 0; trial < 100; trial++ {
			lo := math.Exp(rng.Float64() * 5)
			hi := lo * math.Exp(1+rng.Float64()*6)
			s := hi
			coef := linalg.NewVector(len(bases))
			for i, b := range bases {
				size := math.Abs(b.Eval(hi, s))
				if size == 0 {
					size = 1
				}
				coef[i] = rng.NormFloat64() / size
			}
			m := Model{Bases: bases, Coef: coef, Scale: s}
			got := m.MonotoneNonDecreasing(lo, hi)
			if want := gridMonotone(m, lo, hi, 100000); got != want {
				t.Fatalf("%v on [%g, %g]: exact check %v, 10⁵-point grid %v", m, lo, hi, got, want)
			}
			if got {
				up++
			} else {
				down++
			}
		}
		if up == 0 || down == 0 {
			t.Errorf("set %v: %d non-decreasing and %d not; want both", bases[len(bases)-1].Name, up, down)
		}
	}
}

// TestBasisSlopeMatchesEval: each basis's Slope is Eval's derivative, on
// both sides of its clamp, for every basis of basisTable; and evalBases,
// which evaluates them all at once, matches each Eval bit for bit.
func TestBasisSlopeMatchesEval(t *testing.T) {
	const s = 1000.0
	for i, b := range basisTable {
		if b.id != i {
			t.Fatalf("basisTable[%d] is %s with index %d", i, b.Name, b.id)
		}
		for _, x := range []float64{0, 1e-10, 0.5, 3, 70, 900, 2500} {
			var v [nBases]float64
			evalBases(&v, x, s)
			if got, want := v[i], b.Eval(x, s); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s at %g: evalBases %v, Eval %v", b.Name, x, got, want)
			}
			if x == 0 {
				continue
			}
			h := 1e-6 * (x + 1)
			if p := b.Clamp(s); p > 0 && x-h < p && x+h >= p {
				continue // the difference straddles the clamp
			}
			numeric := (b.Eval(x+h, s) - b.Eval(x-h, s)) / (2 * h)
			if got := b.Slope(x, s); math.Abs(got-numeric) > 1e-5*(math.Abs(numeric)+1e-6) {
				t.Errorf("%s: Slope(%g) = %g, numeric %g", b.Name, x, got, numeric)
			}
		}
	}
}

// TestFitFallsBackToRisingLine: on falling samples every candidate
// decreases somewhere, so Fit returns the constant line, which does not.
func TestFitFallsBackToRisingLine(t *testing.T) {
	xs := linspace(8, 512, 8)
	ys := apply(xs, func(x float64) float64 { return 10 - 0.01*x })
	m, err := FitSamplesOver(xs, ys, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Bases) != 2 || m.Coef[1] != 0 {
		t.Fatalf("got %v, want the {1, x} line with slope 0", m)
	}
	var mean float64
	for _, y := range ys {
		mean += y / float64(len(ys))
	}
	if math.Abs(m.Coef[0]-mean) > 1e-9 {
		t.Errorf("intercept %g, want the mean %g", m.Coef[0], mean)
	}
	if !m.MonotoneNonDecreasing(8, 4096) {
		t.Error("fallback line is not non-decreasing")
	}

	// Two falling points: too few for any candidate, same fallback.
	m, err = FitSamples([]float64{10, 20}, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Coef[1] != 0 || m.Eval(30) != 1.5 {
		t.Errorf("two falling points: got %v, want the constant 1.5", m)
	}
}
