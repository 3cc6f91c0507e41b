package sched

import (
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// Acosta is the dynamic load balancer of Acosta et al. [18] as the paper
// describes it (§II, §IV): execution proceeds in synchronized iterations;
// after each iteration every unit's Relative Power RP_g = load_g/time_g is
// computed, normalized by SRP = ΣRP, and the next iteration's loads follow
// the smoothed weights. Convergence is asymptotic — the weights are a
// weighted average of the latest measurement and history — and every
// iteration ends in a barrier, which is exactly what produces the idleness
// the paper observes for this algorithm.
type Acosta struct {
	Config

	weights   []float64
	loads     []float64 // units assigned to each PU this iteration
	times     []float64 // task duration per PU this iteration
	pending   int
	frozen    bool
	iteration int
	stats     map[string]float64
}

// Acosta's parameters, as used in the paper's comparison.
const (
	// acostaIterationFraction is the share of the input processed per
	// iteration.
	acostaIterationFraction = 0.05
	// acostaSmoothing is the weight of history when updating the per-unit
	// weight vector (0 adopts each measurement instantly, 1 never adapts).
	acostaSmoothing = 0.25
	// acostaStopThreshold ends rebalancing when the relative spread of the
	// units' iteration times falls below it (the user-defined threshold in
	// [18]); weights are then frozen.
	acostaStopThreshold = 0.05
)

// NewAcosta returns the scheduler with the parameters used in the paper's
// comparison.
func NewAcosta(cfg Config) *Acosta { return &Acosta{Config: cfg} }

// Name implements starpu.Scheduler.
func (a *Acosta) Name() string { return "acosta" }

// Stats implements starpu.StatsReporter.
func (a *Acosta) Stats() map[string]float64 { return a.stats }

// Start begins iteration 1 with an even split.
func (a *Acosta) Start(s *starpu.Session) {
	n := len(s.PUs())
	a.weights = make([]float64, n)
	a.loads = make([]float64, n)
	a.times = make([]float64, n)
	a.stats = map[string]float64{}
	for i := range a.weights {
		a.weights[i] = 1 / float64(n)
	}
	emitPhase(s, "iterating")
	a.launchIteration(s)
}

// TaskFinished records the unit's time and, at the barrier, rebalances and
// launches the next iteration.
func (a *Acosta) TaskFinished(s *starpu.Session, rec starpu.TaskRecord) {
	a.times[rec.PU] = rec.ExecEnd - rec.TransferStart
	a.pending--
	if a.pending > 0 {
		return // synchronization barrier
	}
	if s.Remaining() == 0 {
		return
	}
	if !a.frozen {
		a.rebalance(s)
	}
	a.launchIteration(s)
}

// rebalance computes RP and SRP and folds them into the weights.
func (a *Acosta) rebalance(s *starpu.Session) {
	n := len(a.weights)
	rp := make([]float64, n)
	var srp float64
	for i := 0; i < n; i++ {
		if a.times[i] > 0 && a.loads[i] > 0 {
			// In locality mode the relative power is discounted by the
			// unit's expected transfer cost for its load (miss fraction ×
			// link time): units whose data is resident pay nothing extra and
			// attract proportionally more of the next iteration.
			rp[i] = a.loads[i] / (a.times[i] + localityPenalty(s, i, a.loads[i]))
		}
		srp += rp[i]
	}
	if srp <= 0 {
		return
	}
	for i := 0; i < n; i++ {
		a.weights[i] = acostaSmoothing*a.weights[i] + (1-acostaSmoothing)*rp[i]/srp
	}
	// Stop test: spread of iteration times below the user threshold.
	lo, hi := a.times[0], a.times[0]
	for _, t := range a.times[1:] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	// Fig. 6 reports Acosta's distribution "at the end of the application
	// execution"; recording every iteration keeps the latest one available.
	s.RecordDistribution("iteration", a.weights)
	s.Telemetry().Emit(telemetry.Event{
		Kind: telemetry.EvRebalance, Time: s.Now(), PU: -1, Name: "iteration",
	})
	if hi > 0 && (hi-lo)/hi < acostaStopThreshold {
		a.frozen = true
		a.stats["convergedAt"] = float64(a.iteration)
		emitPhase(s, "frozen")
	}
}

// launchIteration distributes this iteration's chunk by the current weights
// and re-arms the barrier. The first iteration probes with
// InitialBlockSize-sized loads (like every algorithm in the comparison, per
// §V.A "used the same initial block size for all algorithms"); later
// iterations distribute full weighted chunks.
func (a *Acosta) launchIteration(s *starpu.Session) {
	a.iteration++
	chunk := acostaIterationFraction * float64(s.TotalUnits())
	if a.iteration == 1 {
		chunk = a.initialBlock() * float64(len(s.PUs()))
	}
	if rem := float64(s.Remaining()); chunk > rem {
		chunk = rem
	}
	for i := range a.times {
		a.times[i] = 0
		a.loads[i] = 0
	}
	for i, pu := range s.PUs() {
		if s.Remaining() == 0 {
			break
		}
		if pu.Dev.Failed() {
			a.weights[i] = 0
			continue
		}
		want := a.weights[i] * chunk
		if want < 0.5 {
			continue
		}
		got := s.Assign(pu, want)
		if got > 0 {
			a.loads[i] = float64(got)
			a.pending++
		}
	}
	// Guard: if every weight rounded away, push the chunk to the fastest
	// surviving unit.
	if a.pending == 0 && s.Remaining() > 0 {
		best := -1
		for i, w := range a.weights {
			if !s.PUs()[i].Dev.Failed() && (best < 0 || w > a.weights[best]) {
				best = i
			}
		}
		if best >= 0 {
			got := s.Assign(s.PUs()[best], chunk)
			a.loads[best] = float64(got)
			a.pending++
		}
	}
	a.stats["iterations"] = float64(a.iteration)
}
