package sched

import (
	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

// StaticProfile is the static profiling-based distribution of de Camargo
// [17], discussed in the paper's §II: the data split is computed *before*
// execution from profiles of previous runs, each unit receives its whole
// share up front, and nothing is adjusted at runtime — which is exactly
// the drawback the paper cites ("since it is static, an initial unbalanced
// distribution cannot be adjusted in runtime").
type StaticProfile struct {
	// Rates are the profiled units-per-second of each processing unit,
	// obtained from a previous execution (see RatesFromReport).
	Rates []float64

	blocks []float64
	issued []int
}

// staticProfileChunks is how many equal kernel launches StaticProfile
// splits each unit's share into: the distribution is fixed up front, but
// the device still processes it as a sequence of kernels, as any real
// implementation of [17] would.
const staticProfileChunks = 8

// NewStaticProfile builds the scheduler from previously profiled rates.
func NewStaticProfile(rates []float64) *StaticProfile {
	return &StaticProfile{Rates: rates}
}

// RatesFromReport derives per-unit processing rates (units per busy
// second) from a previous run's report — the "profiles from previous
// executions" of [17].
func RatesFromReport(rep *starpu.Report) []float64 {
	units := make([]float64, len(rep.PUNames))
	busy := make([]float64, len(rep.PUNames))
	for _, r := range rep.Records {
		units[r.PU] += float64(r.Units)
		busy[r.PU] += r.ExecEnd - r.TransferStart
	}
	rates := make([]float64, len(units))
	for i := range rates {
		if busy[i] > 0 {
			rates[i] = units[i] / busy[i]
		}
	}
	return rates
}

// Name implements starpu.Scheduler.
func (sp *StaticProfile) Name() string { return "static-profile" }

// Start computes the static split and issues every block immediately.
func (sp *StaticProfile) Start(s *starpu.Session) {
	n := len(s.PUs())
	rates := sp.Rates
	if len(rates) != n {
		rates = make([]float64, n)
		for i := range rates {
			rates[i] = 1
		}
	}
	var sum float64
	for i, pu := range s.PUs() {
		if pu.Dev.Failed() {
			rates[i] = 0
		}
		sum += rates[i]
	}
	if sum == 0 {
		return
	}
	total := float64(s.Remaining())
	sp.blocks = make([]float64, n)
	sp.issued = make([]int, n)
	for i, pu := range s.PUs() {
		if s.Remaining() == 0 {
			break
		}
		share := rates[i] / sum * total
		if share < 0.5 {
			continue
		}
		sp.blocks[i] = share / staticProfileChunks
		s.Assign(pu, sp.blocks[i])
		sp.issued[i]++
	}
	if s.InFlight() == 0 && s.Remaining() > 0 {
		s.Assign(s.PUs()[0], float64(s.Remaining()))
	}
	s.RecordDistribution("static-profile", rates)
}

// TaskFinished issues the unit's remaining pre-planned chunks; there is no
// runtime adjustment by design.
func (sp *StaticProfile) TaskFinished(s *starpu.Session, rec starpu.TaskRecord) {
	if s.Remaining() == 0 {
		return
	}
	if sp.issued != nil && sp.issued[rec.PU] < staticProfileChunks && sp.blocks[rec.PU] >= 0.5 &&
		!s.PUs()[rec.PU].Dev.Failed() {
		s.Assign(s.PUs()[rec.PU], sp.blocks[rec.PU])
		sp.issued[rec.PU]++
		return
	}
	// All planned chunks done: mop up rounding leftovers only when no
	// other unit is still working.
	if s.InFlight() == 0 {
		if !s.PUs()[rec.PU].Dev.Failed() {
			s.Assign(s.PUs()[rec.PU], float64(s.Remaining()))
			return
		}
		for _, pu := range s.PUs() {
			if !pu.Dev.Failed() {
				s.Assign(pu, float64(s.Remaining()))
				return
			}
		}
	}
}

// WeightedFactoring is the load-sharing scheme of Hummel et al. [20],
// the paper's §II early related work: fixed per-unit weight factors chosen
// ahead of time, with work handed out in geometrically decreasing rounds
// (each round distributes half the remaining data in weighted shares), so
// early mis-weighting can be partially absorbed by the small final blocks.
type WeightedFactoring struct {
	Config
	// Weights are the fixed speed factors; nil means equal weights (the
	// classic factoring scheme for homogeneous processors).
	Weights []float64

	weights []float64
}

// Factoring's classic halving rounds: each block is weight ×
// remaining/factoringDecay, floored at factoringMinBlock units. HDSS's
// completion phase uses the same rule.
const (
	factoringDecay    = 2
	factoringMinBlock = 1
)

// NewWeightedFactoring returns the scheduler with classic halving rounds.
func NewWeightedFactoring(cfg Config, weights []float64) *WeightedFactoring {
	return &WeightedFactoring{Config: cfg, Weights: weights}
}

// Name implements starpu.Scheduler.
func (w *WeightedFactoring) Name() string { return "weighted-factoring" }

// Start normalizes the weights and launches the first round.
func (w *WeightedFactoring) Start(s *starpu.Session) {
	n := len(s.PUs())
	w.weights = make([]float64, n)
	var sum float64
	for i := range w.weights {
		if w.Weights != nil && i < len(w.Weights) {
			w.weights[i] = w.Weights[i]
		} else {
			w.weights[i] = 1
		}
		sum += w.weights[i]
	}
	for i := range w.weights {
		w.weights[i] /= sum
	}
	s.RecordDistribution("weights", w.weights)
	for i, pu := range s.PUs() {
		if s.Remaining() == 0 {
			break
		}
		w.assign(s, pu, i)
	}
}

// TaskFinished hands the freed unit its next decreasing block.
func (w *WeightedFactoring) TaskFinished(s *starpu.Session, rec starpu.TaskRecord) {
	if s.Remaining() == 0 {
		return
	}
	pu := s.PUs()[rec.PU]
	if pu.Dev.Failed() {
		for _, other := range s.PUs() {
			if !other.Dev.Failed() {
				pu = other
				break
			}
		}
		if pu.Dev.Failed() {
			return
		}
	}
	w.assign(s, pu, pu.ID)
}

func (w *WeightedFactoring) assign(s *starpu.Session, pu *cluster.PU, i int) {
	block := w.weights[i] * float64(s.Remaining()) / factoringDecay
	if block < factoringMinBlock {
		block = factoringMinBlock
	}
	s.Assign(pu, block)
}
