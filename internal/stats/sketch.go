package stats

import "math"

// QuantileSketch is a fixed-memory streaming quantile estimator over
// positive durations (seconds). It buckets observations on a logarithmic
// grid (HDR-histogram style): bucket i covers [min·γ^i, min·γ^(i+1)) with
// γ = 1.04, so any reported quantile is within √γ−1 ≈ 2% relative error of
// the exact nearest-rank order statistic, at ~7 KB per sketch and O(1) per
// observation — no sample retention, no sort.
//
// A log-bucketed sketch was chosen over P² (cannot merge) and t-digest
// (merge result depends on merge order) because the experiment runner needs
// bit-identical aggregates at any -jobs parallelism: bucket counts add
// commutatively, and quantile values are pure functions of the counts plus
// the exactly tracked min/max, so merging per-seed sketches in seed order
// reproduces the sequential runner's output to the last bit.
//
// The zero value is an empty, ready-to-use sketch; bucket storage is
// allocated on the first observation. A nil *QuantileSketch is valid for
// every read accessor and reports an empty sketch.
type QuantileSketch struct {
	counts   []uint64
	n        uint64
	sum      float64
	min, max float64 // exact extremes; quantiles are clamped into them
	lo, hi   int     // occupied bucket index bounds (valid when n > 0)
}

// The bucket grid spans [1e-9 s, 1e6 s): below a nanosecond every duration
// lands in bucket 0 and is reported via the exact min; above ~11.5 days
// everything lands in the last bucket and is reported via the exact max.
// 881 = ceil(ln(1e15)/ln(1.04)) buckets cover the span.
const (
	sketchGamma   = 1.04
	sketchMinVal  = 1e-9
	sketchBuckets = 881
)

// SketchRelativeError is the worst-case relative error of a reported
// quantile against the exact nearest-rank order statistic: √γ − 1.
var SketchRelativeError = math.Sqrt(sketchGamma) - 1

var (
	sketchLnGamma    = math.Log(sketchGamma)
	sketchInvLnGamma = 1 / math.Log(sketchGamma)
)

// NewQuantileSketch returns an empty sketch.
func NewQuantileSketch() *QuantileSketch { return &QuantileSketch{} }

// sketchIndex maps a positive value to its bucket.
func sketchIndex(v float64) int {
	if v <= sketchMinVal {
		return 0
	}
	i := int(math.Log(v/sketchMinVal) * sketchInvLnGamma)
	if i >= sketchBuckets {
		i = sketchBuckets - 1
	}
	return i
}

// sketchValues[i] is the geometric midpoint of bucket i, the value reported
// for any rank that lands in the bucket. It is tabulated once because the
// per-request p99 reads would otherwise spend most of their time in math.Exp.
var sketchValues = func() (v [sketchBuckets]float64) {
	for i := range v {
		v[i] = sketchMinVal * math.Exp((float64(i)+0.5)*sketchLnGamma)
	}
	return v
}()

// Observe adds one duration to the sketch. NaN, ±Inf and negative values
// are ignored. After the first observation no call allocates.
func (s *QuantileSketch) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return
	}
	if s.counts == nil {
		s.counts = make([]uint64, sketchBuckets)
	}
	i := sketchIndex(v)
	s.counts[i]++
	if s.n == 0 {
		s.min, s.max = v, v
		s.lo, s.hi = i, i
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
		if i < s.lo {
			s.lo = i
		}
		if i > s.hi {
			s.hi = i
		}
	}
	s.n++
	s.sum += v
}

// Reset empties the sketch in place, keeping the bucket storage, so a
// windowed consumer can roll measurement windows without allocating.
func (s *QuantileSketch) Reset() {
	if s == nil || s.n == 0 {
		return
	}
	for i := s.lo; i <= s.hi; i++ {
		s.counts[i] = 0
	}
	s.n, s.sum = 0, 0
	s.min, s.max = 0, 0
	s.lo, s.hi = 0, 0
}

// Merge folds o into s. Bucket counts add, so merging is commutative and
// associative on the counts; only the running sum is order-sensitive (last
// ulp), which is why the runner merges in seed order. o is unchanged.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o == nil || o.n == 0 {
		return
	}
	if s.counts == nil {
		s.counts = make([]uint64, sketchBuckets)
	}
	for i := o.lo; i <= o.hi; i++ {
		s.counts[i] += o.counts[i]
	}
	if s.n == 0 {
		s.min, s.max = o.min, o.max
		s.lo, s.hi = o.lo, o.hi
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
		if o.lo < s.lo {
			s.lo = o.lo
		}
		if o.hi > s.hi {
			s.hi = o.hi
		}
	}
	s.n += o.n
	s.sum += o.sum
}

// Count returns the number of observations.
func (s *QuantileSketch) Count() int64 {
	if s == nil {
		return 0
	}
	return int64(s.n)
}

// Sum returns the sum of observations.
func (s *QuantileSketch) Sum() float64 {
	if s == nil {
		return 0
	}
	return s.sum
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *QuantileSketch) Mean() float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the exact smallest observation, or 0 when empty.
func (s *QuantileSketch) Min() float64 {
	if s == nil {
		return 0
	}
	return s.min
}

// Max returns the exact largest observation, or 0 when empty.
func (s *QuantileSketch) Max() float64 {
	if s == nil {
		return 0
	}
	return s.max
}

// clamp pulls a bucket midpoint into the exactly observed range, so q→0 and
// q→1 converge on the true extremes instead of bucket boundaries.
func (s *QuantileSketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Quantile returns the estimated q-quantile (nearest-rank convention:
// the value of the ⌈q·n⌉-th smallest observation), within
// SketchRelativeError of the exact order statistic. q ≤ 0 yields the exact
// min, q ≥ 1 the exact max, an empty (or nil) sketch 0.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s == nil || s.n == 0 {
		return 0
	}
	if !(q > 0) { // q ≤ 0, or NaN
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	return s.clamp(sketchValues[s.bucketOf(q)])
}

// bucketOf returns the bucket holding the ⌈q·n⌉-th smallest observation,
// for q in (0, 1): the first bucket whose cumulative count reaches the rank.
// Ranks above the median walk down from the top, where they lie — a p99
// read visits a few buckets instead of nearly all of them. Both walks stop
// at the same bucket: cum(lo..i) ≥ rank exactly when the count above i is
// at most n − rank.
func (s *QuantileSketch) bucketOf(q float64) int {
	rank := max(uint64(math.Ceil(q*float64(s.n))), 1)
	if rank > s.n/2 {
		above, i := s.n-rank, s.hi
		for tail := s.counts[i]; tail <= above; tail += s.counts[i] {
			i--
		}
		return i
	}
	i := s.lo
	for cum := s.counts[i]; cum < rank; cum += s.counts[i] {
		i++
	}
	return i
}

// QuantilesInto fills dst[i] with Quantile(qs[i]). dst must be at least as
// long as qs. It never allocates, making it cheap enough for per-event
// metric-gauge refreshes.
func (s *QuantileSketch) QuantilesInto(qs, dst []float64) {
	for i, q := range qs {
		dst[i] = s.Quantile(q)
	}
}
