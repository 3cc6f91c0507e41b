package profile

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSamplerBasics(t *testing.T) {
	s := NewSampler(3)
	if s.NumPU() != 3 {
		t.Fatalf("NumPU = %d", s.NumPU())
	}
	s.Add(0, 10, 1.0, 0.1)
	s.Add(0, 20, 2.0, 0.2)
	s.Add(1, 10, 5.0, 0.1)
	if s.Count(0) != 2 || s.Count(1) != 1 || s.Count(2) != 0 {
		t.Errorf("counts = %d,%d,%d", s.Count(0), s.Count(1), s.Count(2))
	}
	// Zero or negative block sizes are ignored.
	s.Add(2, 0, 1, 1)
	s.Add(2, -5, 1, 1)
	if s.Count(2) != 0 {
		t.Error("non-positive sizes should be ignored")
	}
}

func TestFitAllRequiresSamples(t *testing.T) {
	s := NewSampler(2)
	s.Add(0, 10, 1, 0)
	s.Add(0, 20, 2, 0)
	// PU 1 has no samples.
	if _, err := s.FitAll(100); !errors.Is(err, ErrNeedSamples) {
		t.Errorf("want ErrNeedSamples, got %v", err)
	}
}

// TestFitLiveSkipsDeadUnits: a dead unit without samples does not block
// the fit of the others, and its zero model takes no part in MinR2.
func TestFitLiveSkipsDeadUnits(t *testing.T) {
	s := NewSampler(3)
	fillLinear(s, 0, 0.01, 0.001, 10, 20, 40, 80)
	fillLinear(s, 2, 0.03, 0.001, 10, 20, 40, 80)
	s.Add(1, 10, 1, 0) // one sample, then the unit died
	if _, err := s.FitAll(100); !errors.Is(err, ErrNeedSamples) {
		t.Fatalf("FitAll: want ErrNeedSamples, got %v", err)
	}
	ms, err := s.FitLive(100, []bool{false, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if ms.PU[1].F.Coef != nil || ms.RMSE[1] != 0 {
		t.Errorf("dead unit got a model: %v (RMSE %g)", ms.PU[1], ms.RMSE[1])
	}
	if want := math.Min(ms.PU[0].R2(), ms.PU[2].R2()); ms.MinR2 != want {
		t.Errorf("MinR2 = %g, want the live units' minimum %g", ms.MinR2, want)
	}
}

func fillLinear(s *Sampler, pu int, rate, transferRate float64, sizes ...float64) {
	for _, x := range sizes {
		s.Add(pu, x, rate*x, transferRate*x)
	}
}

func TestFitAllLinearDevices(t *testing.T) {
	s := NewSampler(2)
	fillLinear(s, 0, 0.001, 0.0001, 8, 16, 32, 64)
	fillLinear(s, 1, 0.05, 0.0001, 8, 16, 32, 64)
	ms, err := s.FitAll(10000)
	if err != nil {
		t.Fatal(err)
	}
	if !ms.GoodEnough() {
		t.Errorf("MinR2 = %g, want ≥ 0.7 on noise-free data", ms.MinR2)
	}
	// E = F + G evaluated at 1000.
	want0 := 0.001*1000 + 0.0001*1000
	if got := ms.PU[0].Eval(1000); math.Abs(got-want0)/want0 > 0.05 {
		t.Errorf("PU0 Eval(1000) = %g, want ≈%g", got, want0)
	}
	if len(ms.Curves(nil)) != 2 {
		t.Error("Curves length mismatch")
	}
	if !strings.Contains(ms.PU[0].String(), "R²") {
		t.Errorf("String = %q", ms.PU[0].String())
	}
	if ms.PU[0].R2() < 0.99 {
		t.Errorf("R2() = %g", ms.PU[0].R2())
	}
}

func TestFloorPreventsVanishingExtrapolation(t *testing.T) {
	// Craft samples whose best unguarded fit dives at large x; the floor
	// must keep E(x) at least ~0.8·bestRate·x.
	s := NewSampler(1)
	fillLinear(s, 0, 0.05, 0, 4, 8, 16, 32)
	ms, err := s.FitAll(1e6)
	if err != nil {
		t.Fatal(err)
	}
	m := ms.PU[0]
	if m.FloorRate <= 0 {
		t.Fatal("floor rate not derived")
	}
	x := 1e6
	if got := m.Eval(x); got < m.FloorRate*x-1e-9 {
		t.Errorf("Eval(%g) = %g below floor %g", x, got, m.FloorRate*x)
	}
}

func TestCapPreventsExplodingExtrapolation(t *testing.T) {
	s := NewSampler(1)
	fillLinear(s, 0, 0.001, 0, 8, 16, 32, 64)
	ms, err := s.FitAll(1e6)
	if err != nil {
		t.Fatal(err)
	}
	m := ms.PU[0]
	x := 1e6
	if got, cap := m.Eval(x), m.CapRate*x; got > cap+1e-9 {
		t.Errorf("Eval(%g) = %g above cap %g", x, got, cap)
	}
	// Inside the sampled range the cap must not interfere.
	if got, want := m.Eval(32), 0.001*32; math.Abs(got-want)/want > 0.1 {
		t.Errorf("in-range Eval distorted by cap: %g vs %g", got, want)
	}
}

// TestDerivConsistentWithEval: where neither rate bound binds, E_p's slope
// is the slope of F, which the monotonicity check reads, plus G's A1.
func TestDerivConsistentWithEval(t *testing.T) {
	s := NewSampler(1)
	fillLinear(s, 0, 0.01, 0.001, 8, 16, 32, 64, 128)
	ms, err := s.FitAll(1000)
	if err != nil {
		t.Fatal(err)
	}
	m := ms.PU[0]
	for _, x := range []float64{10, 50, 120} {
		h := x * 1e-5
		numeric := (m.Eval(x+h) - m.Eval(x-h)) / (2 * h)
		if got := m.F.Slope(x) + m.G.A1; math.Abs(got-numeric) > 1e-3*(math.Abs(numeric)+1e-9) {
			t.Errorf("slope(%g) = %g, numeric %g", x, got, numeric)
		}
	}
}

// TestFallingTransferFloored: transfer samples that fall as the block grows
// fit a line with a negative slope. FitLive replaces it with the constant
// mean, so E_p stays non-decreasing from the smallest probe to the horizon.
func TestFallingTransferFloored(t *testing.T) {
	s := NewSampler(1)
	for _, x := range []float64{8, 16, 32, 64, 128} {
		s.Add(0, x, 0.001*x, 0.05-1e-4*x)
	}
	const horizon = 4096
	ms, err := s.FitAll(horizon)
	if err != nil {
		t.Fatal(err)
	}
	m := ms.PU[0]
	if m.G.A1 < 0 {
		t.Fatalf("transfer slope A1 = %g, want ≥ 0", m.G.A1)
	}
	if want := 0.05 - 1e-4*(8+16+32+64+128)/5.0; math.Abs(m.G.A2-want) > 1e-12 {
		t.Errorf("transfer intercept %g, want the mean %g", m.G.A2, want)
	}
	prev := m.Eval(8)
	for x := 8.0; x <= horizon; x += 0.25 {
		if e := m.Eval(x); e < prev {
			t.Fatalf("E_p falls from %g to %g at x = %g", prev, e, x)
		} else {
			prev = e
		}
	}
}

// nextProbeSizes applies ProbeSize to one synchronized round: units and
// durations describe each unit's most recent probe, and fastest is the
// highest of their rates.
func nextProbeSizes(mult, base float64, units, durations []float64) []float64 {
	rates := make([]float64, len(units))
	fastest := 0.0
	for i := range rates {
		if durations[i] > 0 && units[i] > 0 {
			rates[i] = units[i] / durations[i]
		}
		fastest = max(fastest, rates[i])
	}
	sizes := make([]float64, len(units))
	for i, r := range rates {
		sizes[i] = ProbeSize(mult, base, r, fastest)
	}
	return sizes
}

func TestNextProbeSizesRatioRule(t *testing.T) {
	// Two units: the first twice as fast. Round-1 blocks of 10 units each
	// took 1s and 2s.
	units := []float64{10, 10}
	durations := []float64{1, 2}
	sizes := nextProbeSizes(2, 10, units, durations)
	if sizes[0] != 20 {
		t.Errorf("fastest probe = %g, want 2·base = 20", sizes[0])
	}
	if math.Abs(sizes[1]-10) > 1e-9 {
		t.Errorf("slower probe = %g, want 10 (half)", sizes[1])
	}
}

func TestNextProbeSizesEqualizedRounds(t *testing.T) {
	// After an equalized round (different sizes, same duration), the rate
	// ratio must be preserved — this was the probing bug that starved the
	// modeling phase of dynamic range.
	units := []float64{100, 10}
	durations := []float64{1, 1}
	sizes := nextProbeSizes(4, 10, units, durations)
	if sizes[0] != 40 {
		t.Errorf("fast unit probe = %g, want 40", sizes[0])
	}
	if math.Abs(sizes[1]-4) > 1e-9 {
		t.Errorf("slow unit probe = %g, want 4", sizes[1])
	}
}

func TestNextProbeSizesDegenerate(t *testing.T) {
	sizes := nextProbeSizes(2, 10, []float64{0, 0}, []float64{0, 0})
	for _, sz := range sizes {
		if sz != 20 {
			t.Errorf("degenerate probe = %g, want mult·base", sz)
		}
	}
	// Minimum block of one unit.
	sizes = nextProbeSizes(2, 10, []float64{1, 1000}, []float64{1000, 1})
	if sizes[0] < 1 {
		t.Errorf("probe below one unit: %g", sizes[0])
	}
}

// Property: probe sizes are ∝ measured rates, capped below at 1, with the
// fastest unit receiving exactly mult·base.
func TestNextProbeSizesProperty(t *testing.T) {
	f := func(rates [4]uint8) bool {
		units := make([]float64, 4)
		durations := make([]float64, 4)
		for i, r := range rates {
			units[i] = float64(r%50) + 1
			durations[i] = 1
		}
		sizes := nextProbeSizes(8, 4, units, durations)
		fastest := 0
		for i := range units {
			if units[i] > units[fastest] {
				fastest = i
			}
		}
		if math.Abs(sizes[fastest]-32) > 1e-9 {
			return false
		}
		for i := range sizes {
			if sizes[i] < 1 || sizes[i] > 32+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGoodEnoughThreshold(t *testing.T) {
	ms := Models{MinR2: 0.69}
	if ms.GoodEnough() {
		t.Error("0.69 should not pass the 0.7 bar")
	}
	ms.MinR2 = 0.71
	if !ms.GoodEnough() {
		t.Error("0.71 should pass")
	}
}

func TestScaleTimes(t *testing.T) {
	s := NewSampler(2)
	fillLinear(s, 0, 0.01, 0, 8, 16, 32)
	fillLinear(s, 1, 0.01, 0, 8, 16, 32)
	// Unit 0's speed halves: rescale its history by 2.
	s.ScaleTimes(0, 2)
	ms, err := s.FitAll(1000)
	if err != nil {
		t.Fatal(err)
	}
	e0, e1 := ms.PU[0].Eval(100), ms.PU[1].Eval(100)
	if e0 < 1.8*e1 || e0 > 2.2*e1 {
		t.Errorf("rescaled unit should be ~2x slower: %g vs %g", e0, e1)
	}
	// Non-positive factors are ignored.
	before := s.Exec[1][0].Seconds
	s.ScaleTimes(1, 0)
	s.ScaleTimes(1, -3)
	if s.Exec[1][0].Seconds != before {
		t.Error("non-positive factor modified samples")
	}
}
