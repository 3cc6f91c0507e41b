package starpu

import (
	"math"

	"plbhec/internal/health"
	"plbhec/internal/telemetry"
)

// HealthPolicy enables the heartbeat/membership subsystem: workers emit
// periodic heartbeats, the master runs a failure detector over the arrival
// stream, and block ownership is tracked through fencing leases. Unlike the
// retry machinery — which reacts to the engine's oracular device-failure
// signal — the detector only ever sees heartbeats, so detection latency,
// false suspicions under partitions, and fenced late completions become
// measurable costs instead of free oracle knowledge.
//
// On suspicion the master requeues the suspect's in-flight blocks under
// fresh lease tokens; if the suspect was actually alive (a partition, a
// heartbeat path failure, a GC pause) its late completions are fenced —
// discarded deterministically, preserving exactly-once delivery — and when
// its heartbeats resume it rejoins as a placement target with its fitted
// profile intact.
//
// A nil *HealthPolicy (the default) disables all of it at zero cost.
// HealthPolicy implies retry, since suspicion without requeueing is useless.
type HealthPolicy struct {
	// HeartbeatSeconds is the worker heartbeat period (default 0.05).
	HeartbeatSeconds float64
	// Detector selects the suspicion rung: "phi" (default) is phi-accrual —
	// adaptive to observed arrival jitter — and "deadline" is a fixed
	// timeout, the cheap rung.
	Detector string
	// PhiThreshold is the phi-accrual suspicion level (default 8,
	// i.e. P(false positive) ≈ 1e-8 under the fitted arrival model).
	PhiThreshold float64
	// TimeoutSeconds is the deadline detector's timeout, and the bootstrap
	// timeout the phi detector uses before it has phiMinSamples intervals
	// (default 3 × HeartbeatSeconds).
	TimeoutSeconds float64
}

const (
	// phiWindowSize is the phi detector's interval window.
	phiWindowSize = 32
	// phiMinSamples is how many intervals the phi detector needs before
	// trusting its fitted distribution.
	phiMinSamples = 3
)

// DefaultHealthPolicy returns the policy used by the chaos experiments:
// 50 ms heartbeats under a phi-accrual detector at threshold 8.
func DefaultHealthPolicy() *HealthPolicy {
	return &HealthPolicy{
		HeartbeatSeconds: 0.05,
		Detector:         "phi",
		PhiThreshold:     8,
		TimeoutSeconds:   0.15,
	}
}

// normalized returns a defensive copy with defaults filled in, or nil for a
// nil policy (health disabled).
func (p *HealthPolicy) normalized() *HealthPolicy {
	if p == nil {
		return nil
	}
	q := *p
	if !(q.HeartbeatSeconds > 0) {
		q.HeartbeatSeconds = 0.05
	}
	if q.Detector != "deadline" {
		q.Detector = "phi"
	}
	if !(q.PhiThreshold > 0) {
		q.PhiThreshold = 8
	}
	if !(q.TimeoutSeconds > 0) {
		q.TimeoutSeconds = 3 * q.HeartbeatSeconds
	}
	return &q
}

// detectorConfig maps the policy onto the detector package's config.
func (p *HealthPolicy) detectorConfig() health.Config {
	kind := health.PhiAccrual
	if p.Detector == "deadline" {
		kind = health.Deadline
	}
	return health.Config{
		Kind:            kind,
		IntervalSeconds: p.HeartbeatSeconds,
		PhiThreshold:    p.PhiThreshold,
		TimeoutSeconds:  p.TimeoutSeconds,
		WindowSize:      phiWindowSize,
		MinSamples:      phiMinSamples,
	}
}

// initHealth wires the detector, lease table, and per-unit membership state.
// Called from initCommon when a HealthPolicy is attached.
func (s *Session) initHealth() {
	if s.health == nil {
		return
	}
	s.retry = true
	n := len(s.pus)
	s.det = health.NewDetector(s.health.detectorConfig(), n)
	s.leases = health.NewLeaseTable()
	s.suspected = make([]bool, n)
	s.hbGen = make([]uint64, n)
	s.physDownAt = make([]float64, n)
	for i := range s.physDownAt {
		s.physDownAt[i] = -1
	}
}

// heartbeatSuppressed reports whether a fault currently blocks the unit's
// heartbeat path (partition or injected heartbeat loss).
func (s *Session) heartbeatSuppressed(id int, now float64) bool {
	if s.partUntil != nil && s.partUntil[id] > now {
		return true
	}
	if s.hbLossUntil != nil && s.hbLossUntil[id] > now {
		return true
	}
	return false
}

// noteHeartbeat feeds one heartbeat arrival into the detector. A heartbeat
// from a suspected unit is the rejoin signal.
func (s *Session) noteHeartbeat(id int, now float64) {
	s.det.Heartbeat(id, now)
	s.hbGen[id]++
	if s.suspected[id] {
		s.rejoinUnit(id, now)
	}
}

// suspectUnit marks the unit suspected, accounts detection latency or a
// false positive against the engine's ground truth, and moves every lease
// the suspect holds: speculative slots are cleared, primaries reassigned
// under fresh fencing tokens.
func (s *Session) suspectUnit(id int, now float64) {
	s.suspected[id] = true
	res := &s.resilience[id]
	res.Suspicions++
	falsePositive := !s.pus[id].Dev.Failed()
	if falsePositive {
		res.FalseSuspects++
	} else if down := s.physDownAt[id]; down >= 0 {
		res.DetectionSeconds += now - down
	}
	var v float64
	if falsePositive {
		v = 1
	}
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{Kind: telemetry.EvSuspect, Time: now,
			PU: id, Seq: -1, Name: s.pus[id].Name(), Value: v})
	}

	primary, spec := s.leases.Holdings(id)
	for _, seq := range spec {
		s.leases.ClearSpec(seq)
		s.revoke(id, seq)
	}
	for _, seq := range primary {
		s.reassignLease(id, seq)
	}
}

// reassignLease moves one primary lease off a suspected unit. If a healthy
// speculative copy of the block is already running it is promoted — its
// token survives, so the copy in flight still admits — otherwise the block
// is requeued on a fresh target under a fresh token. Either way every copy
// the suspect holds is fenced.
//
// Per-unit in-flight settlement: a running copy is settled by revoke at the
// moment it is detached; a copy that died with its unit was settled then
// and left its lease marked lost; a block with no copy at all (relaunch
// still pending in backoff) is settled through requeueBlockSettled. Exactly
// one of the three applies per copy.
func (s *Session) reassignLease(from, seq int) {
	l := s.leases.Get(seq)
	if l == nil || l.Owner != from {
		return
	}
	lo, hi, retries, lost := l.Lo, l.Hi, l.Retries, l.Lost
	if sp := l.SpecOwner; sp >= 0 {
		if !s.suspected[sp] && !s.pus[sp].Dev.Failed() {
			// Promote the live backup; the old primary's copy is now stale.
			s.leases.Promote(seq)
			s.revoke(from, seq)
			return
		}
		s.leases.ClearSpec(seq)
		s.revoke(sp, seq)
	}
	detached := s.revoke(from, seq)
	s.requeueBlockSettled(from, seq, lo, hi, retries, detached == 0 && !lost)
}

// rejoinUnit restores a suspected unit as a placement target: suspicion and
// blacklist state are lifted and the failure streak resets. The fitted
// profile was never dropped, so the scheduler can size blocks for the unit
// immediately; residency is wiped only by real device death, not by rejoin.
func (s *Session) rejoinUnit(id int, now float64) {
	s.suspected[id] = false
	s.resilience[id].Rejoins++
	s.consecFails[id] = 0
	s.liftBlacklist(id, now)
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{Kind: telemetry.EvRejoin, Time: now,
			PU: id, Seq: -1, Name: s.pus[id].Name()})
	}
}

// liftBlacklist clears the unit's blacklist bit, emitting the lift event
// that makes the state transition observable (previously the bit was
// silently cleared on recovery).
func (s *Session) liftBlacklist(id int, now float64) {
	if !s.blacklist[id] {
		return
	}
	s.blacklist[id] = false
	s.resilience[id].Blacklisted = false
	s.resilience[id].BlacklistLifts++
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{Kind: telemetry.EvBlacklistLift, Time: now,
			PU: id, Seq: -1, Name: s.pus[id].Name()})
	}
}

// recoverLostBlocks requeues the still-leased blocks whose copies died with
// the unit, for brown-outs shorter than the detector's suspicion latency:
// without this, a block lost in a quick down/up flap would wedge until the
// detector (which saw at most a blip) eventually noticed. Requeueing under
// a fresh token keeps it exactly-once either way; a block with a live
// backup copy is promoted onto it instead of relaunched.
func (s *Session) recoverLostBlocks(id int) {
	if s.leases == nil {
		return
	}
	primary, _ := s.leases.Holdings(id)
	for _, seq := range primary {
		l := s.leases.Get(seq)
		if !l.Lost {
			continue // the copy is still running (e.g. partition-held)
		}
		if sp := l.SpecOwner; sp >= 0 && !s.suspected[sp] && !s.pus[sp].Dev.Failed() {
			s.leases.Promote(seq) // the live backup completes the block
			continue
		}
		s.requeueBlockSettled(id, seq, l.Lo, l.Hi, l.Retries, false)
	}
}

// noteFenced accounts one fenced (discarded) late completion.
func (s *Session) noteFenced(pu, seq int, units int64) {
	s.resilience[pu].FencedCompletions++
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{Kind: telemetry.EvFence, Time: s.eng.now(),
			PU: pu, Seq: seq, Units: units})
	}
}

// leaseTokenFor returns the token the engine must stamp on a primary copy
// of seq launched on pu — 0 when health is off (tokens unused).
func (s *Session) leaseTokenFor(pu, seq int) uint64 {
	if s.leases == nil {
		return 0
	}
	return s.leases.TokenFor(seq, pu)
}

// grantSpecLease issues the speculative slot of seq to pu and returns the
// backup copy's fencing token (0 when health is off).
func (s *Session) grantSpecLease(seq, pu int) uint64 {
	if s.leases == nil {
		return 0
	}
	return s.leases.GrantSpec(seq, pu)
}

// Suspected reports whether the failure detector currently suspects unit
// id. Always false without a HealthPolicy.
func (s *Session) Suspected(id int) bool {
	return s.suspected != nil && id >= 0 && id < len(s.suspected) && s.suspected[id]
}

// InjectPartition cuts unit id off from the master until the given engine
// time (+Inf: permanently): heartbeats stop, and completions are held at
// the partition boundary and delivered only after it heals — where a
// meanwhile-reassigned block's stale result is fenced. The fault package
// installs these from Partition specs; tests may call it directly before or
// during a run. An out-of-range id is ignored.
func (s *Session) InjectPartition(id int, until float64) {
	if id < 0 || id >= len(s.pus) {
		return
	}
	if s.partUntil == nil {
		s.partUntil = make([]float64, len(s.pus))
	}
	if until > s.partUntil[id] {
		s.partUntil[id] = until
	}
}

// InjectHeartbeatLoss suppresses unit id's heartbeats until the given
// engine time (+Inf: permanently) while its completions still flow — the
// pure false-positive stimulus: the detector will suspect a perfectly
// healthy unit, its blocks get reassigned, and its late results are fenced.
// An out-of-range id is ignored.
func (s *Session) InjectHeartbeatLoss(id int, until float64) {
	if id < 0 || id >= len(s.pus) {
		return
	}
	if s.hbLossUntil == nil {
		s.hbLossUntil = make([]float64, len(s.pus))
	}
	if until > s.hbLossUntil[id] {
		s.hbLossUntil[id] = until
	}
}

// startHeartbeatPump primes the heartbeat machinery: one self-rescheduling
// beat timer per unit, plus the initial suspicion check — so a unit that
// never beats at all is still caught. Heartbeats and suspicion checks are
// ordinary engine timers on both engines, which keeps simulated health runs
// bit-reproducible.
func (s *Session) startHeartbeatPump() {
	if s.health == nil {
		return
	}
	s.hbFn = make([]func(), len(s.pus))
	for i := range s.pus {
		id := i
		s.hbFn[id] = func() { s.pumpBeat(id) }
		s.eng.at(s.health.HeartbeatSeconds, s.hbFn[id])
		s.scheduleSuspectCheck(id, 0)
	}
}

// pumpBeat is one heartbeat tick: if the unit is alive and its heartbeat
// path unbroken, the beat reaches the detector and the unit's suspicion
// check moves out past the new crossing time. The tick always reschedules
// itself while the run needs it — a dead or partitioned unit keeps *trying*
// to beat, so its first beat after healing arrives promptly.
func (s *Session) pumpBeat(id int) {
	if !s.running() {
		return // run over or failed: let the event queue drain
	}
	now := s.eng.now()
	if !s.pus[id].Dev.Failed() && !s.heartbeatSuppressed(id, now) {
		s.noteHeartbeat(id, now)
		s.scheduleSuspectCheck(id, s.hbGen[id])
	}
	s.eng.at(now+s.health.HeartbeatSeconds, s.hbFn[id])
}

// scheduleSuspectCheck arms one check event at the detector's predicted
// crossing time for the unit's current heartbeat generation. A fresh beat
// bumps the generation, turning every earlier check into a no-op — one live
// check per unit instead of a poll.
func (s *Session) scheduleSuspectCheck(id int, gen uint64) {
	at := s.det.SuspectAt(id)
	if math.IsInf(at, 1) {
		return
	}
	if now := s.eng.now(); at < now {
		at = now
	}
	s.eng.at(at, func() { s.suspectCheck(id, gen) })
}

// suspectCheck fires at a predicted suspicion crossing: if no heartbeat
// arrived since it was armed and the detector confirms, the unit is
// suspected.
func (s *Session) suspectCheck(id int, gen uint64) {
	if !s.running() || s.hbGen[id] != gen || s.suspected[id] {
		return
	}
	if now := s.eng.now(); s.det.Suspect(id, now) {
		s.suspectUnit(id, now)
	}
}
