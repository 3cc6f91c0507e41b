package sched

import (
	"plbhec/internal/ipm"
	"plbhec/internal/starpu"
)

// This file is the scheduler side of the data-residency subsystem: shared
// helpers that fold a unit's expected transfer cost — scaled by its observed
// handle miss fraction — into each policy's placement objective. Every
// helper is inert when the session runs without locality, so legacy
// schedules stay bit-identical.

// localityCurve augments a unit's fitted time curve with its expected
// transfer cost for a block of x units: the fitted kernel time plus the
// per-block latency floor and the bandwidth seconds for the bytes the unit
// is expected to actually fetch (both already scaled by the unit's miss
// fraction). The solver then naturally allocates more work to units whose
// data is resident — they finish the same block sooner.
type localityCurve struct {
	base ipm.Curve
	lat  float64 // expected per-block transfer latency seconds
	rate float64 // expected transfer seconds per work unit
}

// Eval implements ipm.Curve.
func (c localityCurve) Eval(x float64) float64 { return c.base.Eval(x) + c.lat + c.rate*x }

// localityCurves wraps each unit's curve with its transfer-cost term when
// the session tracks residency; with locality disabled (or for dead units)
// the curves pass through untouched.
func localityCurves(s *starpu.Session, curves []ipm.Curve) []ipm.Curve {
	if !s.LocalityEnabled() {
		return curves
	}
	for i := range curves {
		if _, isDead := curves[i].(deadCurve); isDead {
			continue
		}
		mf, rate, lat, ok := s.LocalityHint(i)
		if !ok {
			continue
		}
		curves[i] = localityCurve{base: curves[i], lat: mf * lat, rate: mf * rate}
	}
	return curves
}

// localityPenalty returns the transfer seconds unit pu is expected to pay on
// top of kernel time for a block of the given size, given its observed miss
// fraction; 0 when locality is disabled, so weight formulas degrade to their
// legacy form exactly.
func localityPenalty(s *starpu.Session, pu int, units float64) float64 {
	mf, rate, lat, ok := s.LocalityHint(pu)
	if !ok {
		return 0
	}
	return mf * (lat + rate*units)
}
