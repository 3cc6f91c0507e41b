package starpu

import (
	"math"

	"plbhec/internal/telemetry"
)

// This file is the runtime's tail-tolerance accounting: watchdog deadlines
// (predicted via the scheduler's model or a streamed observed baseline),
// straggler accounting with a soft blacklist, and the bookkeeping for
// speculative backup copies. Arming watchdogs, launching backups and
// resolving first-completion-wins races is the copy table's job
// (copies.go).

// SetPredictor installs a per-block execution-time predictor: fn(pu, units)
// returns the expected seconds for a block of that many units on that unit,
// and watchdog deadlines are derived from it. Schedulers with a fitted
// profile model (PLB-HeC) call this so deadlines track the model; without a
// predictor the session falls back to a Welford-streamed baseline of
// observed per-unit rates. No-op unless a SpeculationPolicy is attached.
// Predictions that are non-positive or non-finite are ignored for that
// block (the observed baseline takes over).
func (s *Session) SetPredictor(fn func(pu int, units float64) float64) {
	s.predict = fn
}

// SlowBlacklisted reports whether the runtime currently treats the unit as
// a straggler (excluded from backup and requeue targeting).
func (s *Session) SlowBlacklisted(id int) bool {
	return s.spec != nil && id >= 0 && id < len(s.pus) && s.slow[id]
}

// watchdogDeadline returns the watchdog budget in seconds for a block of
// units launched on pu, or 0 when no deadline can be armed (no policy, no
// usable prediction, and too few observations for the baseline).
func (s *Session) watchdogDeadline(pu int, units int64) float64 {
	sp := s.spec
	if sp == nil || units <= 0 {
		return 0
	}
	var pred float64
	if s.predict != nil {
		if v := s.predict(pu, float64(units)); v > 0 && !math.IsInf(v, 1) && !math.IsNaN(v) {
			pred = v
		}
	}
	if pred == 0 {
		if s.wdCount[pu] < int64(sp.MinObservations) {
			return 0
		}
		// Observed baseline: mean per-unit rate plus two standard
		// deviations, so ordinary variance doesn't look like straggling.
		mean := s.wdMean[pu]
		var sd float64
		if s.wdCount[pu] > 1 {
			sd = math.Sqrt(s.wdM2[pu] / float64(s.wdCount[pu]-1))
		}
		pred = (mean + 2*sd) * float64(units)
	}
	d := sp.DeadlineMultiplier * pred
	if d < sp.MinDeadlineSeconds {
		d = sp.MinDeadlineSeconds
	}
	if !(d > 0) || math.IsInf(d, 1) {
		return 0
	}
	return d
}

// observeBlock feeds one completed block into the unit's streaming baseline
// (Welford mean/variance of seconds per unit) and, when the block had an
// armed deadline and beat it, clears the unit's straggler state.
func (s *Session) observeBlock(pu int, units int64, seconds float64, withinDeadline bool) {
	if s.spec == nil {
		return
	}
	if units > 0 && seconds >= 0 && !math.IsInf(seconds, 1) && !math.IsNaN(seconds) {
		rate := seconds / float64(units)
		s.wdCount[pu]++
		delta := rate - s.wdMean[pu]
		s.wdMean[pu] += delta / float64(s.wdCount[pu])
		s.wdM2[pu] += delta * (rate - s.wdMean[pu])
	}
	if withinDeadline {
		s.slowCount[pu] = 0
		if s.slow[pu] {
			s.slow[pu] = false
			s.resilience[pu].SlowBlacklisted = false
		}
	}
}

// noteExpiry charges one watchdog expiration to the unit and soft-blacklists
// it once the consecutive count reaches the policy's threshold. Unlike the
// hard blacklist (repeated failures), the soft one lifts as soon as the unit
// completes a block within deadline again — see observeBlock.
func (s *Session) noteExpiry(pu int) {
	s.slowCount[pu]++
	if !s.slow[pu] && s.slowCount[pu] >= s.spec.SlowAfter {
		s.slow[pu] = true
		s.resilience[pu].SlowBlacklisted = true
	}
}

// pickSpecTarget returns the best alive, non-blacklisted, non-straggling
// unit to run a backup copy of block [lo, hi) on, excluding the straggler
// itself; -1 when none qualifies and the block must simply wait for its
// original copy. Candidates are ranked by missing bytes for the block's
// data (locality mode), then by blocks in flight, then by lowest ID —
// deterministic; with locality disabled the ranking is the legacy
// least-loaded rule bit-for-bit.
func (s *Session) pickSpecTarget(exclude int, lo, hi int64) int {
	best := -1
	var bestMiss float64
	for i, pu := range s.pus {
		if i == exclude || s.blacklist[i] || s.slow[i] || pu.Dev.Failed() ||
			(s.suspected != nil && s.suspected[i]) {
			continue
		}
		var miss float64
		if s.res != nil {
			miss = s.res.MissBytes(i, lo, hi)
		}
		if best < 0 || betterTarget(miss, s.inflightPU[i], bestMiss, s.inflightPU[best]) {
			best, bestMiss = i, miss
		}
	}
	return best
}

// noteSpeculate records a backup launch: origPU's block seq expired its
// watchdog and a copy was launched on backupPU.
func (s *Session) noteSpeculate(origPU, backupPU, seq int, units int64) {
	s.resilience[origPU].Speculations++
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvSpeculate, Time: s.eng.now(), Name: "launch",
			PU: origPU, Seq: seq, Units: units, Value: float64(backupPU),
		})
	}
}

// noteSpecResolved records the outcome of a speculation race: backupWon
// says whether the backup copy finished first. Both outcomes are charged to
// the straggling unit. Races settled by a device death (the surviving copy
// completes alone) resolve without either outcome, so SpecWins + SpecWasted
// can trail Speculations.
func (s *Session) noteSpecResolved(origPU, backupPU, seq int, units int64, backupWon bool) {
	name := "wasted"
	if backupWon {
		s.resilience[origPU].SpecWins++
		name = "win"
	} else {
		s.resilience[origPU].SpecWasted++
	}
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvSpeculate, Time: s.eng.now(), Name: name,
			PU: origPU, Seq: seq, Units: units, Value: float64(backupPU),
		})
	}
}
