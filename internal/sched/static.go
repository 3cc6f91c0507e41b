package sched

import (
	"plbhec/internal/cluster"
	"plbhec/internal/ipm"
	"plbhec/internal/starpu"
)

// Static is a perfect-knowledge oracle used for ablations: it solves the
// block-size selection once at t=0 using the *true* device and link models
// (no probing, no fitting error, no charged overhead) and hands every unit
// its whole share in one block. It bounds what any profile-based dynamic
// scheduler could achieve on a stationary cluster, in the spirit of the
// static profiling algorithm of [17] with oracle profiles.
type Static struct {
	stats map[string]float64
}

// NewStatic returns the oracle scheduler.
func NewStatic() *Static { return &Static{stats: map[string]float64{}} }

// Name implements starpu.Scheduler.
func (st *Static) Name() string { return "static-oracle" }

// Stats implements starpu.StatsReporter.
func (st *Static) Stats() map[string]float64 { return st.stats }

// Start solves with ground-truth curves and submits one block per unit.
func (st *Static) Start(s *starpu.Session) {
	pus := s.PUs()
	curves := make([]ipm.Curve, len(pus))
	for i, pu := range pus {
		curves[i] = oracleCurve{pu: pu, s: s}
	}
	res, err := ipm.Solve(ipm.Problem{Curves: curves, Total: float64(s.Remaining())}, ipm.Options{})
	if err != nil {
		// Oracle cannot fail on healthy clusters; degrade to even split.
		even := float64(s.Remaining()) / float64(len(pus))
		for _, pu := range pus {
			if s.Remaining() == 0 {
				break
			}
			s.Assign(pu, even)
		}
		return
	}
	st.stats["solverSeconds"] = res.WallTime.Seconds()
	s.RecordDistribution("oracle", res.X)
	for i, pu := range pus {
		if s.Remaining() == 0 {
			break
		}
		if res.X[i] >= 0.5 {
			s.Assign(pu, res.X[i])
		}
	}
	if s.InFlight() == 0 && s.Remaining() > 0 {
		s.Assign(pus[0], float64(s.Remaining()))
	}
}

// TaskFinished mops up rounding leftovers.
func (st *Static) TaskFinished(s *starpu.Session, rec starpu.TaskRecord) {
	if s.Remaining() > 0 && s.InFlight() == 0 {
		s.Assign(s.PUs()[rec.PU], float64(s.Remaining()))
	}
}

// oracleCurve evaluates the exact expected time of a block on a unit:
// nominal device time plus nominal link time.
type oracleCurve struct {
	pu *cluster.PU
	s  *starpu.Session
}

// Eval implements ipm.Curve.
func (c oracleCurve) Eval(x float64) float64 {
	prof := c.s.Profile()
	t := c.pu.Dev.NominalExecSeconds(prof, x)
	t += c.pu.NominalTransferSeconds(x * prof.TransferBytesPerUnit)
	return t
}
