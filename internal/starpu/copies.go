package starpu

import (
	"fmt"
	"math"

	"plbhec/internal/telemetry"
)

// This file is the master's copy table: every copy of a block in flight on
// either engine, from its launch until its engine hands it back. The session
// owns the table and every decision about a copy — fencing, the speculation
// race, the watchdog and its backup, cancel on a device death, revoke on a
// lease move, the hold behind a partition — so the engines only run blocks:
// launch starts a copy, and the engine later hands it to deliver when its
// kernel finished or to bounce when its unit could not run it.
//
// Two engine facts are read from the copy instead of branched on here:
//
//   - cancelBy, the time until which the copy can still be interrupted: its
//     kernel's end on the simulator, and never (0) on the live engine, whose
//     real kernels run to completion; and
//   - rec.ExecEnd at launch, the copy's known finish time: final on the
//     simulator, +Inf on the live engine until the worker reports. A
//     watchdog is armed only when the known finish misses the deadline.

// copyState is where a copy stands in its block's delivery.
type copyState uint8

const (
	// copyRunning: the copy may still deliver its block.
	copyRunning copyState = iota
	// copyRevoked: the block's lease moved off the copy's unit. Its unit
	// account was settled at the revocation, and its result will be fenced.
	copyRevoked
	// copyDead: the copy was cancelled, lost its speculation race, or died
	// with its unit. Its account is settled; when its engine hands it back it
	// is only released.
	copyDead
)

// blockCopy is one in-flight copy of a block: a first launch, a requeued
// relaunch, or a speculative backup. Copies are pooled: release returns one
// to the free list and advances gen, so a watchdog armed on an earlier use
// of the struct stands down.
type blockCopy struct {
	s *Session
	// rec carries the block's seq, unit and range from creation; the engine
	// fills in the times.
	rec     TaskRecord
	retries int    // how often the block was requeued before this copy
	token   uint64 // lease token the copy runs under (0 with health off)
	// deadline is the armed watchdog deadline in engine seconds (0: none);
	// the copy can be cancelled while the clock is before cancelBy.
	deadline float64
	cancelBy float64
	// twin links the two running copies of a speculated block; backup marks
	// the speculative one, which never speculates again.
	twin   *blockCopy
	backup bool
	state  copyState
	gen    uint64
	// prev and next link the copies on the same unit in launch order, so a
	// cancel or revoke visits only that unit's copies.
	prev, next *blockCopy
}

// copyList is one unit's copies in launch order.
type copyList struct{ head, tail *blockCopy }

// Fire implements sim.Handler: the simulator hands a copy back when its
// kernel ends.
func (c *blockCopy) Fire() { c.s.deliver(c) }

// newCopy takes a copy of block seq's range [lo, hi) on unit pu from the
// pool and links it last in the unit's list.
func (s *Session) newCopy(pu, seq int, lo, hi int64, retries int) *blockCopy {
	var c *blockCopy
	if n := len(s.freeCopies); n > 0 {
		c = s.freeCopies[n-1]
		s.freeCopies[n-1] = nil
		s.freeCopies = s.freeCopies[:n-1]
	} else {
		c = &blockCopy{s: s}
	}
	c.rec = TaskRecord{Seq: seq, PU: pu, Lo: lo, Hi: hi, Units: hi - lo, SubmitTime: s.eng.now()}
	c.retries = retries
	l := &s.unitCopies[pu]
	c.prev = l.tail
	if l.tail != nil {
		l.tail.next = c
	} else {
		l.head = c
	}
	l.tail = c
	s.nCopies++
	return c
}

// release unlinks c from its unit's list and returns it to the pool.
func (s *Session) release(c *blockCopy) {
	l := &s.unitCopies[c.rec.PU]
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		l.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		l.tail = c.prev
	}
	s.nCopies--
	// Field by field: assigning a zero struct would copy its pointer
	// fields under a bulk write barrier on every completion.
	c.twin, c.prev, c.next = nil, nil, nil
	c.token, c.deadline, c.cancelBy = 0, 0, 0
	c.backup, c.state = false, copyRunning
	c.gen++
	s.freeCopies = append(s.freeCopies, c)
}

// launch starts a copy of block seq's range [lo, hi) on unit pu, moving its
// data no earlier than earliest; retries is how often the block was
// requeued before. A unit that cannot run the copy bounces it at once.
func (s *Session) launch(pu, seq int, lo, hi int64, earliest float64, retries int) {
	if !s.checkMemory(pu, seq, hi-lo) {
		return // typed violation recorded; the queue drains and Run reports it
	}
	c := s.newCopy(pu, seq, lo, hi, retries)
	c.token = s.leaseTokenFor(pu, seq)
	if !s.eng.launch(c, earliest) {
		s.bounce(c)
		return
	}
	// Arm the watchdog only when the copy's known finish misses its
	// deadline: simulated finish times are final at launch (a later speed
	// change never moves a scheduled completion), so a block on pace needs
	// no timer at all.
	if wd := s.watchdogDeadline(pu, hi-lo); wd > 0 {
		c.deadline = c.rec.TransferStart + wd
		if c.rec.ExecEnd > c.deadline {
			gen := c.gen
			s.eng.at(c.deadline, func() { s.watchdogFire(c, gen) })
		}
	}
}

// watchdogFire runs at a copy's deadline while its kernel still runs: it
// charges the expiry to the straggling unit and launches a backup copy on
// the best healthy one. gen guards against the copy having been released
// meanwhile.
func (s *Session) watchdogFire(c *blockCopy, gen uint64) {
	if c.gen != gen || c.state != copyRunning || c.twin != nil {
		return
	}
	orig := c.rec.PU
	s.noteExpiry(orig)
	target := s.pickSpecTarget(orig, c.rec.Lo, c.rec.Hi)
	if target < 0 {
		return // nowhere healthy to speculate; wait for the original
	}
	if s.launchBackup(c, target) {
		s.inflightPU[target]++
		s.noteSpeculate(orig, target, c.rec.Seq, c.rec.Units)
	}
}

// launchBackup starts a speculative copy of orig's block on unit target,
// twinned with orig so that whichever finishes first cancels the other. It
// reports false, having started nothing, when target cannot run the block.
func (s *Session) launchBackup(orig *blockCopy, target int) bool {
	c := s.newCopy(target, orig.rec.Seq, orig.rec.Lo, orig.rec.Hi, orig.retries)
	c.backup = true
	if !s.eng.launch(c, 0) {
		s.release(c)
		return false
	}
	c.token = s.grantSpecLease(c.rec.Seq, target)
	c.twin, orig.twin = orig, c
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvTaskSubmit, Time: c.rec.SubmitTime,
			PU: target, Seq: c.rec.Seq, Units: c.rec.Units,
		})
	}
	return true
}

// deliver takes back a copy whose kernel finished. A dead copy is only
// released. A copy whose unit is cut off is held until the partition heals,
// or abandoned when it never will. Any other copy passes fencing — a
// revoked copy's late result is discarded, the exactly-once guarantee under
// false suspicion — settles its speculation race, where the first copy to
// finish wins and the loser dies, and reaches the scheduler.
func (s *Session) deliver(c *blockCopy) {
	if c.state == copyDead {
		s.release(c)
		return
	}
	if s.partUntil != nil {
		if until := s.partUntil[c.rec.PU]; until > s.eng.now() {
			if math.IsInf(until, 1) {
				s.abandon(c)
			} else {
				s.eng.at(until, c.Fire)
			}
			return
		}
	}
	rec, twin, backup := c.rec, c.twin, c.backup
	onTime := c.deadline > 0 && rec.ExecEnd <= c.deadline
	fenced := s.leases != nil && !s.leases.Admit(rec.Seq, rec.PU, c.token)
	// Release first: the scheduler callback below may launch new copies,
	// which reuse this one.
	s.release(c)
	if fenced {
		if twin != nil {
			twin.twin = nil
		}
		s.noteFenced(rec.PU, rec.Seq, rec.Units)
		return
	}
	if twin != nil {
		twin.state = copyDead
		twin.twin = nil
		s.inflightPU[twin.rec.PU]--
		orig, bak := rec.PU, twin.rec.PU
		if backup {
			orig, bak = bak, orig
		}
		s.noteSpecResolved(orig, bak, rec.Seq, rec.Units, backup)
	}
	s.observeBlock(rec.PU, rec.Units, rec.ExecEnd-rec.TransferStart, onTime)
	s.onComplete(rec)
}

// bounce takes back a copy its unit could not run: the device was down at
// launch on the simulator, or at pickup on the live engine. Without a
// RetryPolicy the run fails. A dead or revoked copy was settled before and
// is only released; a copy whose twin still runs leaves the block to the
// twin; any other block is requeued onto a survivor.
func (s *Session) bounce(c *blockCopy) {
	rec, retries := c.rec, c.retries
	pu := s.pus[rec.PU]
	if pu.Dev.Failed() {
		s.NoteDeviceDown(rec.PU)
	}
	requeue := false
	switch {
	case s.retry == nil:
		s.fail(fmt.Errorf("starpu: block %d (%d units) launched on %s: %w",
			rec.Seq, rec.Units, pu.Name(), ErrFailedDevice))
	case c.state != copyRunning:
		// settled when it died or was revoked
	case c.twin != nil:
		c.twin.twin = nil
		s.inflightPU[rec.PU]--
	default:
		requeue = true
	}
	s.release(c)
	if requeue {
		s.requeueBlock(rec.PU, rec.Seq, rec.Lo, rec.Hi, retries)
	}
}

// cancel kills every running copy on unit pu that its engine can still
// interrupt; the unit's device just died. Nothing moves without a
// RetryPolicy. Copies already revoked keep running and are fenced when they
// finish.
func (s *Session) cancel(pu int) {
	if s.retry == nil {
		return
	}
	now := s.eng.now()
	for c := s.unitCopies[pu].head; c != nil; c = c.next {
		if c.state == copyRunning && c.cancelBy > now {
			c.state = copyDead
			s.drop(c)
		}
	}
}

// abandon kills a copy whose result sits behind a permanent partition and
// will never reach the master; without a RetryPolicy the run fails.
func (s *Session) abandon(c *blockCopy) {
	if s.retry == nil {
		s.fail(fmt.Errorf("starpu: block %d (%d units) stranded behind a permanent partition on %s: %w",
			c.rec.Seq, c.rec.Units, s.pus[c.rec.PU].Name(), ErrFailedDevice))
	} else if c.state == copyRunning {
		c.state = copyDead
		s.drop(c)
	}
	s.release(c)
}

// drop settles the block of a copy that just died with its unit. Under a
// HealthPolicy the copy's account settles and the block stays parked on its
// lease, marked lost: only the failure detector, or the unit's recovery,
// moves it, so detection latency stays a measured cost. Otherwise a twin
// still running elsewhere completes the block, or it is requeued.
func (s *Session) drop(c *blockCopy) {
	pu, twin := c.rec.PU, c.twin
	if twin != nil {
		c.twin, twin.twin = nil, nil
	}
	switch {
	case s.leases != nil:
		s.inflightPU[pu]--
		if l := s.leases.Get(c.rec.Seq); l != nil && l.Owner == pu {
			l.Lost = true
		}
	case twin != nil:
		s.inflightPU[pu]--
	default:
		s.requeueBlock(pu, c.rec.Seq, c.rec.Lo, c.rec.Hi, c.retries)
	}
}

// revoke detaches unit pu's running copies of block seq after the block's
// lease moved off pu. Each keeps running, but its twin link is cut so the
// other copy completes alone, its unit account settles now, and its late
// result will be fenced. It returns how many copies it detached.
func (s *Session) revoke(pu, seq int) int {
	n := 0
	for c := s.unitCopies[pu].head; c != nil; c = c.next {
		if c.state != copyRunning || c.rec.Seq != seq {
			continue
		}
		c.state = copyRevoked
		if t := c.twin; t != nil {
			c.twin, t.twin = nil, nil
		}
		s.inflightPU[pu]--
		n++
	}
	return n
}
