package profile

import (
	"math"
	"math/rand"
	"testing"

	"plbhec/internal/fit"
)

// scaleSampler returns n units sampled the way a large PLB-HeC run samples
// them: five probing rounds of doubling blocks, then twelve execution-phase
// blocks near each unit's share, with 5% noise. The blocks are tiny next to
// a horizon of 1.6e7 units, so the normal equations of {1, x, 1/x}, and
// of {1, x, eˣ} on some units, are singular and the refits skip those sets.
func scaleSampler(n int) *Sampler {
	rng := rand.New(rand.NewSource(1))
	s := NewSampler(n)
	for pu := 0; pu < n; pu++ {
		rate := 1e-3 * (0.2 + rng.Float64())
		lat := 0.05 * rng.Float64()
		add := func(x float64) {
			s.Add(pu, x, (lat+rate*x)*(1+0.05*rng.NormFloat64()), 1e-6*x)
		}
		for x := 16.0; x <= 256; x *= 2 {
			add(x)
		}
		block := 1000 + 2000*rng.Float64()
		for i := 0; i < 12; i++ {
			add(block * (0.9 + 0.2*rng.Float64()))
		}
	}
	return s
}

// TestFitLiveConstantAllocs: FitLive allocates the same number of objects
// at 100 and at 1,000 units on a first fit; on a refit after every unit's
// stream has outgrown the fitters' copies of it, which grow into one slab
// per call; and on a warm refit whose horizon shrinks every time, as the
// remaining work does, which allocates the Models slices and one
// coefficient slab and nothing per unit.
func TestFitLiveConstantAllocs(t *testing.T) {
	var first, grown, warm [2]float64
	for i, n := range []int{100, 1000} {
		ss := []*Sampler{scaleSampler(n), scaleSampler(n)}
		k := 0
		horizon := 1.6e7
		fit := func() {
			if _, err := ss[k%2].FitAll(horizon); err != nil {
				t.Fatal(err)
			}
			k++
		}
		first[i] = testing.AllocsPerRun(1, fit)
		for _, s := range ss {
			for pu := 0; pu < n; pu++ {
				// 17 samples more than double the 17 the copies were sized for.
				for j := 0; j < 18; j++ {
					smp := s.Exec[pu][j%17]
					s.Add(pu, smp.Units, smp.Seconds, 1e-6*smp.Units)
				}
			}
		}
		grown[i] = testing.AllocsPerRun(1, fit)
		warm[i] = testing.AllocsPerRun(20, func() {
			fit()
			horizon *= 0.97
		})
	}
	for _, c := range []struct {
		name   string
		allocs [2]float64
	}{{"a first FitLive", first}, {"a FitLive that outgrows the stream copies", grown}, {"a warm FitLive", warm}} {
		if c.allocs[0] != c.allocs[1] {
			t.Errorf("%s allocates %v objects at 100 units and %v at 1,000; want equal", c.name, c.allocs[0], c.allocs[1])
		}
	}
	t.Logf("first fit: %v allocs; outgrown refit: %v; warm refit: %v", first[0], grown[0], warm[0])
}

// BenchmarkFitLive10k measures one warm refit of 10,000 units with 17
// samples each, with a horizon that shrinks on every refit (so every
// unit's scale rows are rebuilt), as at a scale10k rebalance.
func BenchmarkFitLive10k(b *testing.B) {
	s := scaleSampler(10000)
	const horizon = 1.6e7
	if _, err := s.FitAll(horizon); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FitAll(horizon * math.Pow(0.97, float64(1+i%64))); err != nil {
			b.Fatal(err)
		}
	}
}

// rmse is the root-mean-square residual FitLive computed by re-evaluating
// the fitted curve over its samples, kept as the oracle of the residual
// sum the fit now returns.
func rmse(f fit.Model, xs, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var ss float64
	for i := range xs {
		d := f.Eval(xs[i]) - ys[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// TestFitLiveRMSEMatchesOracle: every unit's RMSE from FitLive equals
// rmse over its samples bit for bit, on a first fit and on warm refits
// whose horizon shrinks.
func TestFitLiveRMSEMatchesOracle(t *testing.T) {
	s := scaleSampler(200)
	horizon := 1.6e7
	for round := 0; round < 3; round++ {
		ms, err := s.FitAll(horizon)
		if err != nil {
			t.Fatal(err)
		}
		for pu := range ms.PU {
			xs, ys := s.split(s.Exec[pu])
			if got, want := ms.RMSE[pu], rmse(ms.PU[pu].F, xs, ys); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("round %d unit %d: RMSE %v, the oracle %v", round, pu, got, want)
			}
		}
		horizon *= 0.97
	}
}
