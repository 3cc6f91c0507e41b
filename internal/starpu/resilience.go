package starpu

import (
	"fmt"

	"plbhec/internal/telemetry"
)

// This file is the runtime's failover machinery: fault observation (down/up
// transitions, deduplicated across observers), and the requeue path that
// moves blocks off failed units under a RetryPolicy and relaunches them
// after the policy's backoff through the engine's timer. Cancelling the
// copies in flight on a dead unit is the copy table's job (copies.go).

// NoteDeviceDown records that the unit's device has been observed failed.
// It returns true the first time a given down-transition is reported —
// exactly then EvFailover is emitted — and false for repeat observations,
// so the runtime, the fault injector, and a scheduler's own failure scan
// can all report the same death without double-counting.
func (s *Session) NoteDeviceDown(id int) bool {
	if id < 0 || id >= len(s.pus) || s.downSeen[id] {
		return false
	}
	s.downSeen[id] = true
	s.resilience[id].Failovers++
	if s.physDownAt != nil && s.physDownAt[id] < 0 {
		s.physDownAt[id] = s.eng.now()
	}
	// The device's memory contents die with it: wipe its resident set so
	// future placement decisions re-fetch rather than assume stale handles.
	s.invalidateResidency(id)
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvFailover, Time: s.eng.now(), PU: id, Name: s.pus[id].Name(),
		})
	}
	return true
}

// noteDeviceUp records a recovery: the unit's current failure episode ends,
// its consecutive-failure count resets, and any blacklist is lifted through
// liftBlacklist — emitting EvBlacklistLift and counting the lift, where the
// bit used to be cleared silently — restoring the unit as a requeue target.
// Under a HealthPolicy, blocks whose copies died with the device are
// requeued immediately: a brown-out shorter than the detector's suspicion
// latency must not wedge them until the detector catches up.
func (s *Session) noteDeviceUp(id int) {
	s.downSeen[id] = false
	s.consecFails[id] = 0
	s.liftBlacklist(id, s.eng.now())
	s.resilience[id].Recoveries++
	if s.physDownAt != nil {
		s.physDownAt[id] = -1
	}
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvRecovery, Time: s.eng.now(), PU: id, Name: s.pus[id].Name(),
		})
	}
	s.recoverLostBlocks(id)
}

// DeviceStateChanged tells the runtime that the unit's availability may
// have changed; fault injectors call it right after mutating the device's
// speed factor. On a down-transition the unit's interruptible copies are
// cancelled (when a RetryPolicy is attached): their blocks are requeued, or
// under a HealthPolicy parked until the failure detector moves them. On an
// up-transition the unit is restored as a requeue target. Idempotent.
func (s *Session) DeviceStateChanged(id int) {
	if id < 0 || id >= len(s.pus) {
		return
	}
	if s.pus[id].Dev.Failed() {
		s.NoteDeviceDown(id)
		s.cancel(id)
	} else if s.downSeen[id] {
		s.noteDeviceUp(id)
	}
}

// Blacklisted reports whether the runtime stopped routing requeued blocks
// to the unit after repeated failures.
func (s *Session) Blacklisted(id int) bool {
	return id >= 0 && id < len(s.pus) && s.blacklist[id]
}

// noteFailure charges one failure (launch failure or in-flight abort) to
// the unit and blacklists it once the consecutive count reaches the
// policy's threshold.
func (s *Session) noteFailure(id int) {
	s.resilience[id].Failures++
	s.consecFails[id]++
	if s.retry != nil && !s.blacklist[id] && s.consecFails[id] >= s.retry.BlacklistAfter {
		s.blacklist[id] = true
		s.resilience[id].Blacklisted = true
		if s.tel != nil {
			s.tel.Emit(telemetry.Event{
				Kind: telemetry.EvBlacklist, Time: s.eng.now(), PU: id, Name: s.pus[id].Name(),
			})
		}
	}
}

// requeueBlock moves a block off fromPU after a failure there: it picks the
// least-loaded surviving unit and relaunches after the policy's backoff (in
// engine seconds, so wall-clock on the live engine). retries is how many
// times the block has been requeued before this call. When the block cannot
// be requeued (retries exhausted, or no eligible target) the run fails with
// ErrFailedDevice; both engines then stop waiting for the block.
func (s *Session) requeueBlock(fromPU, seq int, lo, hi int64, retries int) {
	s.requeueBlockSettled(fromPU, seq, lo, hi, retries, true)
}

// requeueBlockSettled is requeueBlock with explicit control over the
// per-unit in-flight settlement: suspicion- and recovery-driven
// reassignments pass settle=false when the copy was already settled (a
// revoked copy, or one lost with its unit), so no decrement happens twice.
func (s *Session) requeueBlockSettled(fromPU, seq int, lo, hi int64, retries int, settle bool) {
	s.noteFailure(fromPU)
	s.resilience[fromPU].Requeues++
	if settle {
		s.inflightPU[fromPU]--
	}
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvRequeue, Time: s.eng.now(), PU: fromPU, Seq: seq, Units: hi - lo,
		})
	}
	if s.retry == nil {
		s.fail(fmt.Errorf("starpu: block %d requeued without a retry policy: %w", seq, ErrFailedDevice))
		return
	}
	next := retries + 1
	if next > s.retry.MaxRetries {
		s.fail(fmt.Errorf("starpu: block %d (%d units) exhausted %d retries, last on %s: %w",
			seq, hi-lo, s.retry.MaxRetries, s.pus[fromPU].Name(), ErrFailedDevice))
		return
	}
	target := s.pickRequeueTarget(fromPU, lo, hi)
	if target < 0 {
		s.fail(fmt.Errorf("starpu: block %d (%d units): no surviving unit to requeue onto: %w",
			seq, hi-lo, ErrFailedDevice))
		return
	}
	s.inflightPU[target]++
	if s.leases != nil {
		s.leases.Grant(seq, target, lo, hi, next)
	}
	s.eng.at(s.eng.now()+s.retry.backoff(next), func() {
		// Under a HealthPolicy the lease may have moved again during the
		// backoff (the target was itself suspected): the newer copy owns
		// the block and this relaunch stands down.
		if s.leases != nil && s.leases.TokenFor(seq, target) == 0 {
			return
		}
		s.launch(target, seq, lo, hi, 0, next)
	})
}

// pickRequeueTarget returns the best surviving unit to requeue block
// [lo, hi) onto, excluding the unit it just failed on; -1 when none
// qualifies. Candidates are ranked by missing bytes for the block's data
// (locality mode — work should land where its input already lives), then by
// blocks in flight, then by lowest ID — deterministic. Without a
// LocalityPolicy every miss is zero and the ranking reduces to the legacy
// least-loaded rule bit-for-bit. Units soft-blacklisted as stragglers are
// avoided while any faster survivor exists, but remain a last resort — a
// slow unit still beats a failed run.
func (s *Session) pickRequeueTarget(exclude int, lo, hi int64) int {
	best := -1
	bestSlow := -1
	var bestMiss, bestSlowMiss float64
	for i, pu := range s.pus {
		if i == exclude || s.blacklist[i] || pu.Dev.Failed() ||
			(s.suspected != nil && s.suspected[i]) {
			continue
		}
		var miss float64
		if s.res != nil {
			miss = s.res.MissBytes(i, lo, hi)
		}
		if s.spec != nil && s.slow[i] {
			if bestSlow < 0 || betterTarget(miss, s.inflightPU[i], bestSlowMiss, s.inflightPU[bestSlow]) {
				bestSlow, bestSlowMiss = i, miss
			}
			continue
		}
		if best < 0 || betterTarget(miss, s.inflightPU[i], bestMiss, s.inflightPU[best]) {
			best, bestMiss = i, miss
		}
	}
	if best < 0 {
		return bestSlow
	}
	return best
}

// betterTarget ranks placement candidates: fewer missing bytes first, then
// lighter in-flight load. Strict comparisons keep the lowest ID on full
// ties, and with locality disabled (all misses zero) the rule degenerates to
// the legacy least-loaded pick exactly.
func betterTarget(missA float64, loadA int, missB float64, loadB int) bool {
	if missA != missB {
		return missA < missB
	}
	return loadA < loadB
}
