// Package stats provides the small statistical toolkit used by the
// experiment harness and device noise models: summary statistics over
// repeated runs, deterministic seeded RNG streams, and a lognormal jitter
// generator for simulated task-duration noise.
package stats

import (
	"math"
	"math/rand/v2"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n−1 denominator), or 0 when
// fewer than two samples are given.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// MinMax returns the smallest and largest values of xs, or (0, 0) for an
// empty slice — a cell whose scheduler yields no samples degrades to a zero
// summary instead of crashing the sweep.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Quantile returns the q-quantile of xs using linear interpolation between
// order statistics. q is clamped to [0, 1]; an empty slice yields 0 (see
// MinMax).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if !(q > 0) { // q ≤ 0, or NaN
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Summary aggregates repeated measurements of one quantity.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Median         float64
	SamplesPreview []float64 // at most 10 raw samples, for debugging
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.Std = StdDev(xs)
	s.Min, s.Max = MinMax(xs)
	s.Median = Quantile(xs, 0.5)
	n := len(xs)
	if n > 10 {
		n = 10
	}
	s.SamplesPreview = append([]float64(nil), xs[:n]...)
	return s
}

// RNG is a deterministic noise stream with stream splitting, so that every
// device, task and repetition gets an independent but reproducible stream
// from one experiment seed. It is a PCG generator (math/rand/v2) held by
// value: creating or splitting a stream costs one 48-byte allocation and a
// few multiplies, cheap enough to give every device of a 100k-unit cluster
// and every option of a live Monte-Carlo kernel its own stream.
type RNG struct {
	base int64
	src  rand.PCG
	r    rand.Rand // draws from src; an RNG is only used through its pointer
}

// pcgStream is the fixed second PCG seed word; the first is the RNG seed.
const pcgStream = 0x9E3779B97F4A7C15

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{base: seed}
	g.src.Seed(uint64(seed), pcgStream)
	g.r = *rand.New(&g.src)
	return g
}

// Split derives an independent child stream identified by id. The same
// (seed, id) pair always yields the same stream, regardless of how much the
// parent stream has been consumed.
func (g *RNG) Split(id int64) *RNG {
	// SplitMix64-style mixing of the parent seed with the id.
	z := uint64(g.base) ^ (uint64(id)*0x9E3779B97F4A7C15 + 0x85EBCA6B)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.IntN(n) }

// Normal returns a sample from N(mu, sigma²).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// LogNormalFactor returns a multiplicative jitter factor with median 1 whose
// log has standard deviation sigma. Used to perturb simulated task
// durations the way real hardware measurements fluctuate.
func (g *RNG) LogNormalFactor(sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(g.r.NormFloat64() * sigma)
}
