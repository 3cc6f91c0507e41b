// Package profile implements the performance-modeling machinery of the
// paper's §III.B (Algorithm 1): collecting (block size, time) samples per
// processing unit during the probing rounds, choosing the next probe sizes
// from relative finish times, and fitting the F_p / G_p model pair until
// the coefficient of determination reaches the paper's 0.7 bar.
package profile

import (
	"errors"
	"fmt"
	"math"

	"plbhec/internal/fit"
	"plbhec/internal/ipm"
	"plbhec/internal/linalg"
)

// Sample is one timing observation for a block of Units work units.
type Sample struct {
	Units   float64
	Seconds float64
}

// Sampler accumulates per-unit timing samples for n processing units. It
// also owns one incremental fit.Fitter per unit, so each FitAll folds only
// the samples that arrived since the previous round into the accumulated
// normal equations instead of refitting the whole history from scratch.
type Sampler struct {
	Exec  [][]Sample // kernel-time samples per PU (feeds F_p)
	Trans [][]Sample // transfer-time samples per PU (feeds G_p)

	// fitters are created lazily in FitAll (one per PU), so zero-value and
	// literal-constructed Samplers keep working.
	fitters []*fit.Fitter
	// xsBuf/ysBuf are the split scratch reused across PUs and rounds.
	xsBuf, ysBuf []float64
}

// NewSampler returns a sampler for n processing units.
func NewSampler(n int) *Sampler {
	return &Sampler{Exec: make([][]Sample, n), Trans: make([][]Sample, n)}
}

// NumPU returns the number of processing units tracked.
func (s *Sampler) NumPU() int { return len(s.Exec) }

// Add records one finished block for processing unit pu.
func (s *Sampler) Add(pu int, units, execSec, transSec float64) {
	if units <= 0 {
		return
	}
	s.Exec[pu] = append(s.Exec[pu], Sample{units, execSec})
	s.Trans[pu] = append(s.Trans[pu], Sample{units, transSec})
}

// Count returns the number of samples collected for pu.
func (s *Sampler) Count(pu int) int { return len(s.Exec[pu]) }

// ScaleTimes multiplies every stored execution-time sample of pu by factor.
// When a unit's speed changes mid-run (cloud QoS, thermal throttling), its
// whole time curve scales by the speed ratio; rescaling the history lets a
// refit see one consistent regime instead of a mixture of old and new.
func (s *Sampler) ScaleTimes(pu int, factor float64) {
	if factor <= 0 {
		return
	}
	for i := range s.Exec[pu] {
		s.Exec[pu][i].Seconds *= factor
	}
}

// Model is the fitted performance model of one processing unit:
// E_p(x) = F_p(x) + G_p(x) (Eq. 5), floored by a physical rate bound.
type Model struct {
	F fit.Model
	G fit.Linear
	// FloorRate is a lower bound on seconds-per-unit, derived from the
	// fastest per-unit rate ever observed on this unit. However wrong an
	// extrapolated fit is, no device suddenly processes units much faster
	// than it ever has — without this bound, a fit that dips at large x
	// would tell the solver to dump all work on a slow device.
	FloorRate float64
	// CapRate bounds the model from above beyond the sampled range (twice
	// the slowest per-unit rate observed): a fit that explodes under
	// extrapolation would otherwise starve a fast device of work.
	CapRate float64
	// MaxSample is the largest block size observed; the cap applies beyond
	// it (inside the sampled range the fit is trusted).
	MaxSample float64
}

// Eval returns E_p(x).
func (m Model) Eval(x float64) float64 {
	v := m.F.Eval(x) + m.G.Eval(x)
	if floor := m.FloorRate * x; v < floor {
		return floor
	}
	if x > m.MaxSample && m.CapRate > 0 {
		if cap := m.CapRate * x; v > cap {
			return cap
		}
	}
	return v
}

// R2 returns the determination coefficient of the processing-time fit,
// which is what Algorithm 1's quality test examines.
func (m Model) R2() float64 { return m.F.R2 }

// String describes the model.
func (m Model) String() string {
	return fmt.Sprintf("F: %v; G: %.3g·x + %.3g", m.F, m.G.A1, m.G.A2)
}

// Models is the set of fitted per-PU models.
type Models struct {
	PU    []Model
	MinR2 float64 // worst F-fit R² across PUs
	// RMSE is each unit's root-mean-square residual of the execution-time
	// fit over its samples, in seconds — the absolute companion to R² that
	// telemetry reports per unit (R² alone hides how large the errors are).
	RMSE []float64
}

// Curves adapts the models to the block-size solver's interface.
func (ms Models) Curves() []ipm.Curve {
	cs := make([]ipm.Curve, len(ms.PU))
	for i := range ms.PU {
		cs[i] = ms.PU[i]
	}
	return cs
}

// GoodEnough reports whether every fit meets the paper's R² ≥ 0.7 bar.
func (ms Models) GoodEnough() bool { return ms.MinR2 >= GoodFitR2 }

// GoodFitR2 is the paper's determination-coefficient threshold: "a value of
// 0.7 provides a good approximation for the curve and prevents overfitting".
const GoodFitR2 = 0.7

// ErrNeedSamples is returned when some processing unit has fewer than two
// samples, making a fit impossible.
var ErrNeedSamples = errors.New("profile: not enough samples to fit")

// FitAll fits F_p and G_p for every processing unit from the accumulated
// samples (§III.B: least squares over the paper's basis set for F, a line
// for G). horizon is the largest block size the models will be evaluated
// at — typically the remaining input — so candidate curves that misbehave
// under extrapolation are rejected.
func (s *Sampler) FitAll(horizon float64) (Models, error) {
	return s.FitLive(horizon, nil)
}

// FitLive is FitAll over the units with dead[pu] false (nil: every unit).
// A dead unit needs no samples: it keeps the zero Model and an RMSE of 0,
// and takes no part in MinR2.
func (s *Sampler) FitLive(horizon float64, dead []bool) (Models, error) {
	n := s.NumPU()
	for len(s.fitters) < n {
		s.fitters = append(s.fitters, nil)
	}
	ms := Models{PU: make([]Model, n), MinR2: math.Inf(1), RMSE: make([]float64, n)}
	for pu := 0; pu < n; pu++ {
		if pu < len(dead) && dead[pu] {
			continue
		}
		if len(s.Exec[pu]) < 2 {
			return Models{}, fmt.Errorf("%w: PU %d has %d samples", ErrNeedSamples, pu, len(s.Exec[pu]))
		}
		if s.fitters[pu] == nil {
			s.fitters[pu] = fit.NewFitter()
		}
		ft := s.fitters[pu]
		xs, ys := s.split(s.Exec[pu])
		f, err := ft.Fit(xs, ys, horizon)
		if err != nil {
			return Models{}, fmt.Errorf("profile: PU %d exec fit: %w", pu, err)
		}
		// The fitter owns the returned Coef until its next Fit; the models
		// outlive the next round (schedulers keep first-round models for
		// adaptation ratios), so take a private copy.
		f.Coef = append(linalg.Vector(nil), f.Coef...)
		ms.RMSE[pu] = rmse(f, xs, ys)
		txs, tys := s.split(s.Trans[pu]) // reuses the xs/ys scratch
		g, err := ft.Line(txs, tys)
		if err != nil {
			// A degenerate transfer fit (e.g. all-zero times on the live
			// engine) collapses to G = 0 rather than failing the model.
			g = fit.Linear{}
		} else if g.A1 < 0 {
			// A falling line would make E_p fall as the block grows, and the
			// solver's optimum needs non-decreasing curves: the best
			// non-decreasing line is the constant mean.
			g = fit.Linear{A2: mean(tys)}
		}
		floor, cap, maxX := rateBounds(s.Exec[pu])
		ms.PU[pu] = Model{F: f, G: g, FloorRate: floor, CapRate: cap, MaxSample: maxX}
		if f.R2 < ms.MinR2 {
			ms.MinR2 = f.R2
		}
	}
	return ms, nil
}

// mean is the arithmetic mean of ys (len ≥ 2 here).
func mean(ys []float64) float64 {
	var sum float64
	for _, y := range ys {
		sum += y
	}
	return sum / float64(len(ys))
}

// rmse is the root-mean-square residual of the fitted curve over the
// samples it was fitted to.
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

// rateBounds derives physical sanity bounds from the samples: the floor is
// 0.8× the fastest seconds-per-unit rate ever observed (probing ends with
// near-saturated blocks, so devices gain little beyond their best observed
// rate), the cap twice the slowest, applied beyond maxX, the largest
// sampled size.
func rateBounds(samples []Sample) (floor, cap, maxX float64) {
	best, worst := math.Inf(1), 0.0
	for _, s := range samples {
		if s.Units <= 0 {
			continue
		}
		r := s.Seconds / s.Units
		if r < best {
			best = r
		}
		if r > worst {
			worst = r
		}
		if s.Units > maxX {
			maxX = s.Units
		}
	}
	if math.IsInf(best, 1) {
		return 0, 0, 0
	}
	return best * 0.8, worst * 2, maxX
}

// split unpacks samples into the sampler's reusable xs/ys scratch buffers.
// The returned slices are valid until the next split call; the fit.Fitter
// copies what it keeps, so the aliasing never escapes FitAll.
func (s *Sampler) split(samples []Sample) (xs, ys []float64) {
	if cap(s.xsBuf) < len(samples) {
		s.xsBuf = make([]float64, len(samples))
		s.ysBuf = make([]float64, len(samples))
	}
	xs = s.xsBuf[:len(samples)]
	ys = s.ysBuf[:len(samples)]
	for i, smp := range samples {
		xs[i], ys[i] = smp.Units, smp.Seconds
	}
	return xs, ys
}

// NextProbeSizes implements the paper's probing-size rule: in round k with
// multiplier m (2, 4, 8, ...), the fastest unit receives a block of m·base
// units and every other unit a block scaled by the performance preview
// t_f/t_k (§III.B), so faster units probe larger sizes and the round's
// tasks finish together. Because each round's blocks are sized to finish
// simultaneously, the preview ratio must be derived from measured
// *throughput* (units per second), not from the previous round's (already
// equalized) finish times: for round-1 equal blocks the two formulations
// coincide with the paper's t_f/t_k, and for later rounds rates preserve
// the speed ratio that equalized times erase.
//
// units and durations describe each unit's most recent probe block.
func NextProbeSizes(mult, base float64, units, durations []float64) []float64 {
	rates := make([]float64, len(units))
	fastest := 0.0
	for i := range rates {
		if durations[i] > 0 && units[i] > 0 {
			rates[i] = units[i] / durations[i]
		}
		if rates[i] > fastest {
			fastest = rates[i]
		}
	}
	sizes := make([]float64, len(units))
	for i, r := range rates {
		if fastest <= 0 || r <= 0 {
			sizes[i] = mult * base
		} else {
			sizes[i] = mult * base * r / fastest
		}
		if sizes[i] < 1 {
			sizes[i] = 1
		}
	}
	return sizes
}
