package stats

import (
	"math"
	"sort"
	"testing"
)

// exactRank returns the nearest-rank q-quantile (the ⌈q·n⌉-th smallest
// sample) — the order statistic the sketch estimates.
func exactRank(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if !(q > 0) {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	r := int(math.Ceil(q * float64(len(s))))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// checkBoundedError asserts every probed quantile is within the sketch's
// documented relative error (plus float slack) of the exact order statistic.
func checkBoundedError(t *testing.T, name string, xs []float64) {
	t.Helper()
	sk := NewQuantileSketch()
	for _, x := range xs {
		sk.Observe(x)
	}
	if got, want := sk.Count(), int64(len(xs)); got != want {
		t.Fatalf("%s: count = %d, want %d", name, got, want)
	}
	tol := SketchRelativeError + 1e-9
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want := exactRank(xs, q)
		got := sk.Quantile(q)
		relErr := math.Abs(got-want) / math.Max(math.Abs(want), 1e-300)
		if want == 0 {
			relErr = math.Abs(got - want)
		}
		if relErr > tol {
			t.Errorf("%s: q=%g: sketch %g vs exact %g (rel err %.4f > %.4f)",
				name, q, got, want, relErr, tol)
		}
	}
}

func TestSketchBoundedErrorUniform(t *testing.T) {
	g := NewRNG(1)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 1e-3 + 10*g.Float64()
	}
	checkBoundedError(t, "uniform", xs)
}

func TestSketchBoundedErrorLognormal(t *testing.T) {
	g := NewRNG(2)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(g.Normal(0, 2)) // heavy-tailed, spans many decades
	}
	checkBoundedError(t, "lognormal", xs)
}

func TestSketchBoundedErrorAdversarial(t *testing.T) {
	// Bimodal mass nine decades apart: every rank query must land on one of
	// the two modes, never in the empty gulf between them.
	bimodal := make([]float64, 0, 10000)
	for i := 0; i < 5000; i++ {
		bimodal = append(bimodal, 1e-6, 1e3)
	}
	checkBoundedError(t, "bimodal", bimodal)

	// Degenerate point mass: exact min == exact max clamps every quantile.
	point := make([]float64, 1000)
	for i := range point {
		point[i] = 0.123456789
	}
	checkBoundedError(t, "point-mass", point)

	// Geometric ramp straddling bucket boundaries.
	ramp := make([]float64, 0, 3000)
	v := 1e-6
	for i := 0; i < 3000; i++ {
		ramp = append(ramp, v)
		v *= 1.007
	}
	checkBoundedError(t, "geometric-ramp", ramp)
}

// TestSketchOutOfGridExtremes: the relative-error bound applies inside the
// bucket grid ([1e-9 s, 1e6 s)); values beyond it collapse into the edge
// buckets, where only the exactly tracked min/max (q→0, q→1) and the
// [min, max] envelope are guaranteed.
func TestSketchOutOfGridExtremes(t *testing.T) {
	sk := NewQuantileSketch()
	for _, v := range []float64{1e-12, 1e-12, 1e12, 1e12} {
		sk.Observe(v)
	}
	if got := sk.Quantile(0); got != 1e-12 {
		t.Errorf("q=0 = %g, want exact min 1e-12", got)
	}
	if got := sk.Quantile(1); got != 1e12 {
		t.Errorf("q=1 = %g, want exact max 1e12", got)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.999} {
		if got := sk.Quantile(q); got < 1e-12 || got > 1e12 {
			t.Errorf("q=%g = %g escapes the [min, max] envelope", q, got)
		}
	}
}

func TestSketchIgnoresNonFinite(t *testing.T) {
	sk := NewQuantileSketch()
	sk.Observe(math.NaN())
	sk.Observe(math.Inf(1))
	sk.Observe(math.Inf(-1))
	sk.Observe(-1)
	if sk.Count() != 0 {
		t.Fatalf("non-finite/negative observations were counted: %d", sk.Count())
	}
	sk.Observe(2)
	if sk.Count() != 1 || sk.Quantile(0.5) != 2 {
		t.Fatalf("sketch broken after ignoring garbage: n=%d p50=%g", sk.Count(), sk.Quantile(0.5))
	}
}

func TestSketchEmptyAndNil(t *testing.T) {
	var nilSk *QuantileSketch
	if nilSk.Quantile(0.5) != 0 || nilSk.Count() != 0 || nilSk.Mean() != 0 {
		t.Error("nil sketch must read as empty")
	}
	empty := NewQuantileSketch()
	if empty.Quantile(0.99) != 0 || empty.Min() != 0 || empty.Max() != 0 {
		t.Error("empty sketch must report zeros")
	}
	dst := []float64{7, 7}
	empty.QuantilesInto([]float64{0.5, 0.99}, dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Errorf("empty QuantilesInto = %v, want zeros", dst)
	}
}

// TestSketchMergeDeterministic proves the property the -jobs runner relies
// on: chunked sketches merged in a fixed order reproduce the single-stream
// sketch bit-for-bit on every quantile, at any chunking.
func TestSketchMergeDeterministic(t *testing.T) {
	g := NewRNG(3)
	xs := make([]float64, 9973) // prime length: chunks of unequal size
	for i := range xs {
		xs[i] = math.Exp(g.Normal(-2, 1.5))
	}
	single := NewQuantileSketch()
	for _, x := range xs {
		single.Observe(x)
	}

	for _, chunks := range []int{1, 2, 7, 64} {
		parts := make([]*QuantileSketch, chunks)
		for c := range parts {
			parts[c] = NewQuantileSketch()
		}
		for i, x := range xs {
			parts[i*chunks/len(xs)].Observe(x)
		}
		merged := NewQuantileSketch()
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged.Count() != single.Count() {
			t.Fatalf("chunks=%d: count %d != %d", chunks, merged.Count(), single.Count())
		}
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			a, b := merged.Quantile(q), single.Quantile(q)
			if a != b { // bit-identical, not approximately equal
				t.Errorf("chunks=%d q=%g: merged %v != single %v", chunks, q, a, b)
			}
		}
		if math.Abs(merged.Mean()-single.Mean()) > 1e-9*single.Mean() {
			t.Errorf("chunks=%d: mean drifted: %v vs %v", chunks, merged.Mean(), single.Mean())
		}
	}
}

// TestSketchQuantilesIntoMatchesQuantile pins the one-pass multi-quantile
// query to the reference single-quantile walk.
func TestSketchQuantilesIntoMatchesQuantile(t *testing.T) {
	g := NewRNG(4)
	sk := NewQuantileSketch()
	for i := 0; i < 5000; i++ {
		sk.Observe(math.Exp(g.Normal(0, 1)))
	}
	qs := []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1}
	dst := make([]float64, len(qs))
	sk.QuantilesInto(qs, dst)
	for i, q := range qs {
		if want := sk.Quantile(q); dst[i] != want {
			t.Errorf("q=%g: QuantilesInto %v != Quantile %v", q, dst[i], want)
		}
	}
}

// TestSketchObserveZeroAlloc guards the hot path: after the first
// observation, Observe and QuantilesInto never allocate. (The name matches
// the CI bench-smoke ZeroAlloc|ConstantAlloc gate.)
func TestSketchObserveZeroAlloc(t *testing.T) {
	sk := NewQuantileSketch()
	sk.Observe(0.5) // first call allocates the bucket array
	qs := []float64{0.5, 0.99, 0.999}
	dst := make([]float64, 3)
	v := 1e-3
	allocs := testing.AllocsPerRun(1000, func() {
		sk.Observe(v)
		v *= 1.01
		sk.QuantilesInto(qs, dst)
	})
	if allocs != 0 {
		t.Fatalf("Observe/QuantilesInto allocated %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkSketchObserve(b *testing.B) {
	sk := NewQuantileSketch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sk.Observe(float64(i%1000) * 1e-3)
	}
}

// BenchmarkSketchQuantile is the live p99 read a service session makes on
// every arrival and completion.
func BenchmarkSketchQuantile(b *testing.B) {
	g := NewRNG(5)
	sk := NewQuantileSketch()
	for i := 0; i < 100000; i++ {
		sk.Observe(math.Exp(g.Normal(0, 1)))
	}
	var v float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v += sk.Quantile(0.99)
	}
	sketchSink = v
}

var sketchSink float64

func BenchmarkSketchQuantilesInto(b *testing.B) {
	g := NewRNG(5)
	sk := NewQuantileSketch()
	for i := 0; i < 100000; i++ {
		sk.Observe(math.Exp(g.Normal(0, 1)))
	}
	qs := []float64{0.5, 0.99, 0.999}
	dst := make([]float64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.QuantilesInto(qs, dst)
	}
}

// bottomUpQuantile is the reference the sketch's reads must reproduce bit
// for bit: walk the buckets from the lowest to the first whose cumulative
// count reaches ⌈q·n⌉, and report its midpoint from math.Exp.
func bottomUpQuantile(s *QuantileSketch, q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if !(q > 0) {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := uint64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := s.lo; i <= s.hi; i++ {
		cum += s.counts[i]
		if cum >= rank {
			return s.clamp(sketchMinVal * math.Exp((float64(i)+0.5)*sketchLnGamma))
		}
	}
	return s.max
}

// TestSketchQuantileMatchesBottomUp: reading a quantile from the near end
// of the bucket array, with tabulated midpoints, returns exactly what the
// bottom-up walk over math.Exp midpoints returns — on fresh, merged and
// reset-then-refilled sketches, at the extremes and around the median.
func TestSketchQuantileMatchesBottomUp(t *testing.T) {
	for i, v := range sketchValues {
		if want := sketchMinVal * math.Exp((float64(i)+0.5)*sketchLnGamma); v != want {
			t.Fatalf("sketchValues[%d] = %v, want %v", i, v, want)
		}
	}
	qs := []float64{0, 1e-9, 0.5, 0.99, 0.999, 1}
	check := func(name string, sk *QuantileSketch) {
		t.Helper()
		dst := make([]float64, len(qs))
		sk.QuantilesInto(qs, dst)
		for j, q := range qs {
			want := bottomUpQuantile(sk, q)
			if got := sk.Quantile(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s n=%d q=%g: Quantile %v, bottom-up %v", name, sk.n, q, got, want)
			}
			if math.Float64bits(dst[j]) != math.Float64bits(want) {
				t.Errorf("%s n=%d q=%g: QuantilesInto %v, bottom-up %v", name, sk.n, q, dst[j], want)
			}
		}
	}
	g := NewRNG(17)
	fill := func(sk *QuantileSketch) {
		n := 1 + g.Intn(2000)
		mu, sigma := g.Normal(-3, 3), 0.1+3*g.Float64()
		for k := 0; k < n; k++ {
			v := math.Exp(g.Normal(mu, sigma))
			if g.Intn(10) == 0 {
				v = math.Round(v*100) / 100 // repeated values share buckets
			}
			sk.Observe(v)
		}
	}
	for trial := 0; trial < 200; trial++ {
		a, b := NewQuantileSketch(), NewQuantileSketch()
		fill(a)
		fill(b)
		check("fresh", a)
		a.Merge(b)
		check("merged", a)
		b.Reset()
		fill(b)
		check("reset", b)
	}
	for n := 1; n <= 4; n++ { // the smallest sketches, where every rank sits at an end
		sk := NewQuantileSketch()
		for k := 0; k < n; k++ {
			sk.Observe(float64(k+1) * 1e-3)
		}
		check("tiny", sk)
	}
	extremes := NewQuantileSketch()
	for _, v := range []float64{0, 1e-12, 1e-9, 1, 1e6, 1e9} {
		extremes.Observe(v)
	}
	check("extremes", extremes)
}
