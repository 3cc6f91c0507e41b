package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	// Sample std of this classic set is ~2.138.
	if got := StdDev(xs); math.Abs(got-2.138) > 0.01 {
		t.Errorf("StdDev = %g, want ≈2.138", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/single-sample cases should be 0")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %g,%g", min, max)
	}
	if min, max := MinMax(nil); min != 0 || max != 0 {
		t.Errorf("MinMax(nil) = %g,%g, want zeros", min, max)
	}
}

// Empty distributions must degrade to zero values, not crash the sweep: a
// cell whose scheduler records no samples still aggregates.
func TestEmptyInputsDegrade(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %g, want 0", got)
	}
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 || s.Median != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero Summary", s)
	}
	// q is clamped outside [0,1] (and on NaN) instead of indexing wild.
	xs := []float64{2, 1, 3}
	if got := Quantile(xs, -5); got != 1 {
		t.Errorf("Quantile(q=-5) = %g, want min", got)
	}
	if got := Quantile(xs, 7); got != 3 {
		t.Errorf("Quantile(q=7) = %g, want max", got)
	}
	if got := Quantile(xs, math.NaN()); got != 1 {
		t.Errorf("Quantile(q=NaN) = %g, want min", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	// Input must not be mutated (Quantile sorts a copy).
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Median != 2 || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty Summary = %+v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	if NewRNG(1).Float64() == NewRNG(2).Float64() {
		t.Error("different seeds produced identical first samples")
	}
}

func TestRNGSplitIndependentOfConsumption(t *testing.T) {
	a := NewRNG(7)
	b := NewRNG(7)
	a.Float64() // consume from a only
	if a.Split(3).Float64() != b.Split(3).Float64() {
		t.Error("Split stream depends on parent consumption")
	}
	if a.Split(1).Float64() == a.Split(2).Float64() {
		t.Error("different split ids produced identical streams")
	}
}

// rngSink keeps the allocation tests' streams on the heap, as every real
// caller's are.
var rngSink *RNG

// TestRNGAllocations pins the cost that lets every device of a 100k-unit
// cluster and every live Monte-Carlo option own a stream: creating or
// splitting one is a single allocation.
func TestRNGAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { rngSink = NewRNG(3) }); n > 1 {
		t.Errorf("NewRNG allocates %.0f objects, want at most 1", n)
	}
	g := NewRNG(3)
	if n := testing.AllocsPerRun(100, func() { rngSink = g.Split(7) }); n > 1 {
		t.Errorf("Split allocates %.0f objects, want at most 1", n)
	}
}

func TestLogNormalFactor(t *testing.T) {
	g := NewRNG(5)
	if g.LogNormalFactor(0) != 1 {
		t.Error("sigma=0 must return exactly 1")
	}
	// With small sigma, factors concentrate near 1.
	var sum float64
	n := 10000
	for i := 0; i < n; i++ {
		f := g.LogNormalFactor(0.015)
		if f <= 0 {
			t.Fatal("non-positive factor")
		}
		sum += f
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.01 {
		t.Errorf("mean factor = %g, want ≈1", mean)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa, qb := math.Abs(math.Mod(q1, 1)), math.Abs(math.Mod(q2, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		lo, hi := MinMax(xs)
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		return va <= vb+1e-12 && va >= lo-1e-12 && vb <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
