package sched

import (
	"math"

	"plbhec/internal/fit"
	"plbhec/internal/profile"
	"plbhec/internal/starpu"
)

// This file is PLB-HeC's solver degradation ladder. The block-size solve
// can fail in classified ways (ipm.ErrNonFinite on chaos-corrupted
// profiles, ipm.ErrInfeasible when no unit can take work); instead of
// poisoning the distribution or collapsing straight to an even split, the
// scheduler descends one rung at a time through strictly simpler
// strategies:
//
//	rung 0  plb-hec     the fitted equation system, solved by water-filling
//	rung 1  last-good   the most recent successful distribution,
//	                    renormalized over the surviving units
//	rung 2  hdss        log-curve throughput weights (the HDSS scheme),
//	                    fitted directly from raw samples — no model needed
//	rung 3  greedy      even split over survivors
//
// A later successful solve climbs back to rung 0 ("recovered"). Every
// transition is reported through Session.NoteFallback, which feeds
// Report.SolverFallbacks, the plbhec_fallbacks_total metric, and
// EvFallback telemetry.

// Ladder rung indices (rung 0 is the normal PLB-HeC solve).
const (
	rungLastGood = 1
	rungHDSS     = 2
	rungGreedy   = 3
)

// degrade picks the next distribution after a failed solve, starting one
// rung below the scheduler's current one so repeated failures keep
// descending instead of replaying a rung that just failed.
func (p *PLBHeC) degrade(s *starpu.Session) {
	p.stats.ladder++
	from := p.rung + 1
	if from < rungLastGood {
		from = rungLastGood
	}
	if from <= rungLastGood && p.shareFromLastGood() {
		p.enterRung(s, rungLastGood, "last-good")
		return
	}
	if from <= rungHDSS && p.shareFromThroughput(s) {
		p.enterRung(s, rungHDSS, "hdss")
		return
	}
	p.evenShareAlive()
	p.enterRung(s, rungGreedy, "greedy")
}

// enterRung records a ladder transition.
func (p *PLBHeC) enterRung(s *starpu.Session, rung int, name string) {
	p.rung = rung
	s.NoteFallback(name, rung)
}

// noteSolveOK records a successful solve: the distribution becomes the new
// last-good rung, and a scheduler that had degraded climbs back to rung 0.
func (p *PLBHeC) noteSolveOK(s *starpu.Session) {
	p.lastGood = append(p.lastGood[:0], p.share...)
	if p.rung > 0 {
		p.rung = 0
		s.NoteFallback("recovered", 0)
	}
}

// shareFromLastGood reuses the most recent successful distribution,
// renormalized over the units still alive. It reports false when no solve
// has succeeded yet or every unit holding share has since died.
func (p *PLBHeC) shareFromLastGood() bool {
	if p.lastGood == nil {
		return false
	}
	var sum float64
	for i, sh := range p.lastGood {
		if !p.dead[i] {
			sum += sh
		}
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return false
	}
	for i := range p.share {
		if p.dead[i] {
			p.share[i] = 0
		} else {
			p.share[i] = p.lastGood[i] / sum
		}
	}
	return true
}

// shareFromThroughput derives the distribution from HDSS-style throughput
// weights: each surviving unit's speed is the log-curve fit of its raw
// (block size, units/s) samples — clamped to the observed speed range, mean
// speed when the fit fails — evaluated at the block size it would receive.
// This needs no fitted time model, so it survives profile corruption that
// breaks the equation system. Reports false when no unit has a usable
// sample.
func (p *PLBHeC) shareFromThroughput(s *starpu.Session) bool {
	n := p.sampler.NumPU()
	alive := 0
	for i := 0; i < n; i++ {
		if !p.dead[i] {
			alive++
		}
	}
	if alive == 0 {
		return false
	}
	steps := float64(p.ExecutionSteps)
	if steps < 1 {
		steps = 1
	}
	probe := float64(s.Remaining()) / (float64(alive) * steps)
	if probe < 1 {
		probe = 1
	}
	speeds := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		if p.dead[i] {
			continue
		}
		speeds[i] = sampleSpeed(p.sampler.Exec[i], probe)
		sum += speeds[i]
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return false
	}
	for i := range p.share {
		p.share[i] = speeds[i] / sum
	}
	return true
}

// sampleSpeed estimates a unit's throughput (units/s) at block size x from
// its raw execution samples.
func sampleSpeed(samples []profile.Sample, x float64) float64 {
	var xs, ys []float64
	lo, hi := math.Inf(1), 0.0
	for _, sm := range samples {
		if sm.Seconds <= 0 || sm.Units <= 0 {
			continue
		}
		v := sm.Units / sm.Seconds
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		xs = append(xs, sm.Units)
		ys = append(ys, v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(xs) == 0 {
		return 0
	}
	if len(xs) >= 2 {
		if m, err := fit.FitLogCurve(xs, ys); err == nil {
			if v := m.Eval(x); v > 0 && !math.IsNaN(v) {
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
	var mean float64
	for _, v := range ys {
		mean += v
	}
	return mean / float64(len(ys))
}
