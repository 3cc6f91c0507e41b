package sched

import (
	"math"

	"plbhec/internal/fit"
	"plbhec/internal/starpu"
)

// HDSS is the Heterogeneous Dynamic Self-Scheduler of Belviranli et al.
// [19] as the paper describes it (§II, §IV). It runs two phases:
//
// Adaptive phase: every unit's block size starts at InitialBlockSize and
// grows geometrically while a FLOP/s-per-block-size curve is fitted by
// minimum squares (logarithmic model); a unit's lane stops ("converges")
// when its measured speed stabilizes or it reaches the sample cap, and the
// phase ends when every lane has converged. Because the weights are a
// global property, converged units wait — this is where the paper observes
// HDSS's processing-unit idleness ("mainly in the first phase of the HDSS
// algorithm, where non-optimal block sizes are used to estimate the
// computational capabilities of each processing unit", §V.c): the uniform
// geometric growth is not scaled to relative unit speed, so fast GPUs sit
// idle while a slow CPU grinds through its training blocks.
//
// Completion phase: the remaining iterations are divided by the frozen
// weights with geometrically decreasing block sizes (factoring), so any
// estimation error can be absorbed by small final blocks.
type HDSS struct {
	Config

	adaptive  bool
	converged []bool
	waiting   []bool // converged units idling at the phase barrier
	inAdapt   int
	xs, ys    [][]float64 // per-PU (size, units/s) samples
	sizes     []float64   // current adaptive block size per PU
	weights   []float64
	usedUnits float64
	stats     map[string]float64
}

// HDSS's parameters, as used in the paper's comparison. The completion
// phase hands out blocks the factoring way, with factoringDecay and
// factoringMinBlock.
const (
	// hdssGrowth multiplies a lane's block size after each adaptive task.
	hdssGrowth = 2
	// hdssConvergenceTol ends a lane when consecutive speed samples change
	// less than this fraction.
	hdssConvergenceTol = 0.10
	// hdssMinLaneSamples and hdssMaxLaneSamples bound a lane's adaptive
	// blocks.
	hdssMinLaneSamples = 2
	hdssMaxLaneSamples = 10
	// hdssAdaptiveBudget caps the fraction of the input the adaptive phase
	// may consume (safety net).
	hdssAdaptiveBudget = 0.15
)

// NewHDSS returns the scheduler with the parameters used in the paper's
// comparison.
func NewHDSS(cfg Config) *HDSS { return &HDSS{Config: cfg} }

// Name implements starpu.Scheduler.
func (h *HDSS) Name() string { return "hdss" }

// Stats implements starpu.StatsReporter.
func (h *HDSS) Stats() map[string]float64 { return h.stats }

// Start begins the adaptive phase with InitialBlockSize everywhere.
func (h *HDSS) Start(s *starpu.Session) {
	n := len(s.PUs())
	h.adaptive = true
	h.converged = make([]bool, n)
	h.waiting = make([]bool, n)
	h.xs = make([][]float64, n)
	h.ys = make([][]float64, n)
	h.sizes = make([]float64, n)
	h.weights = make([]float64, n)
	h.stats = map[string]float64{}
	emitPhase(s, "adaptive")
	for i, pu := range s.PUs() {
		h.sizes[i] = h.initialBlock()
		if s.Remaining() == 0 {
			break
		}
		got := s.Assign(pu, h.sizes[i])
		h.usedUnits += float64(got)
		if got > 0 {
			h.inAdapt++
		}
	}
}

// TaskFinished grows samples during the adaptive phase and hands out
// weight-proportional decreasing blocks during the completion phase.
func (h *HDSS) TaskFinished(s *starpu.Session, rec starpu.TaskRecord) {
	pu := rec.PU
	dur := rec.ExecEnd - rec.TransferStart
	if dur > 0 {
		h.xs[pu] = append(h.xs[pu], float64(rec.Units))
		h.ys[pu] = append(h.ys[pu], float64(rec.Units)/dur)
	}

	if s.Remaining() == 0 {
		return
	}

	if !h.adaptive {
		h.assignCompletion(s, pu)
		return
	}

	h.inAdapt--
	if s.PUs()[pu].Dev.Failed() {
		h.converged[pu] = true
		h.weights[pu] = 0
	}
	h.updateConvergence(s, pu)
	// A lane whose next (doubled) block would exceed 2% of the input stops
	// training: one straggling lane must not hold a huge chunk hostage at
	// the phase barrier.
	if !h.converged[pu] && h.sizes[pu]*hdssGrowth > 0.02*float64(s.TotalUnits()) {
		h.converged[pu] = true
	}
	if !h.converged[pu] {
		// Lane keeps training with a geometrically larger block.
		h.sizes[pu] *= hdssGrowth
		got := s.Assign(s.PUs()[pu], h.sizes[pu])
		h.usedUnits += float64(got)
		if got > 0 {
			h.inAdapt++
			return
		}
	}
	// This lane is done training. If others are still at it, the unit
	// waits at the barrier (phase-1 idleness).
	if h.inAdapt > 0 {
		h.waiting[pu] = true
		return
	}
	h.endAdaptivePhase(s)
}

// updateConvergence marks lane pu converged per the speed-stability rule,
// the sample cap, or the global budget cap.
func (h *HDSS) updateConvergence(s *starpu.Session, pu int) {
	n := len(h.ys[pu])
	if n >= hdssMaxLaneSamples {
		h.converged[pu] = true
		return
	}
	if h.usedUnits >= hdssAdaptiveBudget*float64(s.TotalUnits()) {
		h.converged[pu] = true
		return
	}
	if n >= hdssMinLaneSamples {
		prev, cur := h.ys[pu][n-2], h.ys[pu][n-1]
		if cur > 0 && math.Abs(cur-prev)/cur < hdssConvergenceTol {
			h.converged[pu] = true
		}
	}
}

// endAdaptivePhase freezes the weights and launches the completion phase on
// every waiting unit.
func (h *HDSS) endAdaptivePhase(s *starpu.Session) {
	h.adaptive = false
	h.freezeWeights(s)
	emitPhase(s, "completion")
	s.RecordDistribution("phase-1", h.weights)
	for i := range h.waiting {
		if s.Remaining() == 0 {
			break
		}
		h.assignCompletion(s, i)
	}
	if s.InFlight() == 0 && s.Remaining() > 0 {
		// Degenerate: give everything to the fastest unit.
		best := 0
		for i, w := range h.weights {
			if w > h.weights[best] {
				best = i
			}
		}
		s.Assign(s.PUs()[best], float64(s.Remaining()))
	}
}

// assignCompletion hands unit pu its next decreasing completion block,
// rerouting to the best surviving unit if pu has failed.
func (h *HDSS) assignCompletion(s *starpu.Session, pu int) {
	if s.PUs()[pu].Dev.Failed() {
		best, bestW := -1, 0.0
		for i, other := range s.PUs() {
			if !other.Dev.Failed() && h.weights[i] > bestW {
				best, bestW = i, h.weights[i]
			}
		}
		if best < 0 {
			return
		}
		pu = best
	}
	w := h.weights[pu]
	block := w * float64(s.Remaining()) / factoringDecay
	if block < factoringMinBlock {
		block = factoringMinBlock
	}
	if w <= 0 {
		return
	}
	s.Assign(s.PUs()[pu], block)
}

// freezeWeights fits the logarithmic speed curve speed(x) = a + b·ln x for
// every unit by least squares and converts the projected speeds at each
// unit's expected first completion block into normalized weights.
func (h *HDSS) freezeWeights(s *starpu.Session) {
	n := len(s.PUs())
	speeds := make([]float64, n)
	probe := float64(s.Remaining()) / (factoringDecay * float64(n))
	if probe < 1 {
		probe = 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		speeds[i] = h.projectSpeed(i, probe)
		// In locality mode the frozen weight reflects effective throughput:
		// kernel time for the probe block plus the unit's expected transfer
		// cost (miss fraction × link time). Units already holding the data
		// keep their raw speed; cold units are discounted.
		if speeds[i] > 0 {
			if pen := localityPenalty(s, i, probe); pen > 0 {
				speeds[i] = probe / (probe/speeds[i] + pen)
			}
		}
		sum += speeds[i]
	}
	s.ChargeFit()
	if sum <= 0 {
		for i := range speeds {
			h.weights[i] = 1 / float64(n)
		}
		return
	}
	for i := range speeds {
		h.weights[i] = speeds[i] / sum
	}
	h.stats["weightMax"] = maxOf(h.weights)
}

// projectSpeed evaluates the fitted log curve for unit i at block size x,
// falling back to the unit's mean observed speed when the fit fails. The
// projection is clamped to the lane's observed speed range — a single
// number cannot extrapolate a saturating curve, which is exactly the
// limitation the paper attributes to HDSS ("using a single number to model
// each processor can limit the accuracy").
func (h *HDSS) projectSpeed(i int, x float64) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, v := range h.ys[i] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(h.xs[i]) >= 2 {
		if m, err := fit.FitLogCurve(h.xs[i], h.ys[i]); err == nil {
			v := m.Eval(x)
			if v > 0 && !math.IsNaN(v) {
				if v > hi {
					v = hi
				}
				if v < lo {
					v = lo
				}
				return v
			}
		}
	}
	var sum float64
	for _, v := range h.ys[i] {
		sum += v
	}
	if len(h.ys[i]) == 0 {
		return 0
	}
	mean := sum / float64(len(h.ys[i]))
	if mean < 0 {
		return 0
	}
	return mean
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
