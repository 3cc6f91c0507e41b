package starpu

import (
	"fmt"
	"math"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/sim"
	"plbhec/internal/telemetry"
)

// simEngine executes blocks on the discrete-event simulator against the
// cluster's device models. Each processing unit is a FIFO resource (one
// kernel at a time); each machine's NIC and PCIe bus are FIFO resources
// shared by that machine's units, so concurrent transfers to one node
// serialize as they would on real links.
//
// All per-launch lookups are precomputed in NewSimSession: the NIC/PCIe
// resources and their telemetry names are indexed per PU (no map lookups on
// the hot path), and completions reuse pooled payloads scheduled through
// sim.Engine.Schedule, so a steady-state launch→complete cycle performs no
// heap allocations.
type simEngine struct {
	eng     *sim.Engine
	session *Session
	puRes   []*sim.Resource

	// Per-PU precomputed link routing (indexed by PU ID): nil entries mean
	// the hop does not apply (master-local NIC, CPU-side PCIe).
	nicOfPU   []*sim.Resource
	pcieOfPU  []*sim.Resource
	nicName   []string // telemetry label of the PU's NIC hop
	pcieName  []string // telemetry label of the PU's PCIe hop
	machines  []*cluster.Machine
	nicRes    []*sim.Resource // per machine, cluster order (for linkBusy)
	pcieRes   []*sim.Resource
	freeComps []*simCompletion // completion-payload pool
	// outstanding tracks pending completions so a device failure can abort
	// the blocks in flight on it. Only maintained when a RetryPolicy is
	// attached — the default path keeps its zero-bookkeeping hot loop.
	outstanding []*simCompletion
}

// simCompletion is the pooled completion payload: one block's TaskRecord
// plus the engine to hand it back to. Firing returns the payload to the
// pool before invoking the (potentially re-entrant) scheduler callback.
type simCompletion struct {
	eng     *simEngine
	rec     TaskRecord
	retries int
	// aborted marks a completion whose block was requeued after a device
	// failure (or lost a speculation race); its already-scheduled event
	// then only recycles the payload.
	aborted bool
	// deadline is the block's armed watchdog deadline in absolute engine
	// seconds; 0 when none was armed.
	deadline float64
	// gen increments on every recycle so a watchdog closure can detect
	// that its payload was reused for a different block and stand down.
	gen uint64
	// twin links the two live copies of a speculated block to each other
	// (primary ↔ backup); the first to fire cancels the other. backup marks
	// the speculative copy, which never re-speculates.
	twin   *simCompletion
	backup bool
	// token is the lease token this copy was issued under (0: health off).
	// A completion firing with a stale token is fenced instead of delivered.
	token uint64
	// revoked marks a copy whose lease already moved off its unit: its
	// in-flight account was settled at that revocation, so a later
	// revocation wave for the same (pu, seq) — the lease re-granted to the
	// unit after a rejoin, then suspected again — must not settle it twice.
	revoked bool
}

// Fire implements sim.Handler.
func (c *simCompletion) Fire() {
	e := c.eng
	// A partitioned unit's completion is held at the partition boundary:
	// the device finished computing, but the result cannot reach the master
	// until the partition heals (or never, if it is permanent).
	if !c.aborted && e.session.partUntil != nil {
		if until := e.session.partUntil[c.rec.PU]; until > e.eng.Now() {
			if math.IsInf(until, 1) {
				e.abandonPartitioned(c)
			} else {
				e.eng.Schedule(until, c)
			}
			return
		}
	}
	rec := c.rec
	aborted := c.aborted
	twin := c.twin
	deadline := c.deadline
	backup := c.backup
	token := c.token
	// Recycle first: the scheduler callback below may launch new blocks,
	// which pop from the pool — including this very payload.
	e.recycle(c)
	if aborted {
		return // the block was requeued or lost its speculation race
	}
	if s := e.session; s.leases != nil && !s.admitCompletion(rec.PU, rec.Seq, token) {
		// Fenced: the lease moved while this copy ran (suspicion-driven
		// reassignment) and a fresh copy owns the block now. Discard the
		// late result — this is the exactly-once guarantee under false
		// suspicion. Settlement happened when the copy was revoked.
		if twin != nil {
			twin.twin = nil
		}
		s.noteFenced(rec.PU, rec.Seq, rec.Units)
		return
	}
	if twin != nil {
		// First completion wins: cancel the losing copy deterministically
		// and settle its in-flight account (its event only recycles now).
		twin.aborted = true
		twin.twin = nil
		e.session.inflightPU[twin.rec.PU]--
		orig, bak := rec.PU, twin.rec.PU
		if backup {
			orig, bak = twin.rec.PU, rec.PU
		}
		e.session.noteSpecResolved(orig, bak, rec.Seq, rec.Units, backup)
	}
	e.session.observeBlock(rec.PU, rec.Units, rec.ExecEnd-rec.TransferStart,
		deadline > 0 && rec.ExecEnd <= deadline)
	e.session.onComplete(rec)
}

// SimConfig configures a simulated session.
type SimConfig struct {
	// Overheads charges scheduler computations to virtual time. The zero
	// value means DefaultOverheads; use NoOverheads to disable.
	Overheads *OverheadModel
	// Retry, when non-nil, enables runtime failover: blocks in flight on a
	// failing unit are requeued per the policy instead of erroring the run.
	// See RetryPolicy; nil preserves the legacy fail-fast behavior exactly.
	Retry *RetryPolicy
	// Spec, when non-nil, enables tail tolerance: watchdog deadlines per
	// block and speculative backup copies for expired ones. See
	// SpeculationPolicy; nil preserves the legacy behavior exactly.
	Spec *SpeculationPolicy
	// Health, when non-nil, enables heartbeat failure detection and
	// lease-fenced block ownership: the master learns about failures from
	// missing heartbeats (phi-accrual or deadline) instead of the engine's
	// oracle, requeues on suspicion, and fences stale late completions. See
	// HealthPolicy; nil preserves the legacy behavior exactly. Implies
	// Retry (defaulted when nil).
	Health *HealthPolicy
	// Locality, when non-nil, enables data-residency tracking: shipped
	// block inputs stay resident on their device (LRU-bounded by
	// device.Spec.MemGB), transfers are charged only on a genuine miss, and
	// placement decisions weigh where the data already lives. See
	// LocalityPolicy; nil preserves the legacy re-pay-every-transfer
	// behavior exactly.
	Locality *LocalityPolicy
	// EnforceMemory, in legacy mode (Locality nil), fails the run with a
	// typed *MemoryExceededError when a block's input exceeds the target
	// device's MemGB capacity, instead of silently simulating an impossible
	// placement. Ignored in locality mode, where the residency cache evicts
	// and streams to fit. Off by default: the kernel profiles document
	// shared inputs as streamed tiles, so oversized blocks are legitimate
	// unless an experiment opts into strict validation.
	EnforceMemory bool
}

// NoOverheads disables scheduler-overhead charging (for ablations).
func NoOverheads() *OverheadModel { return &OverheadModel{} }

// NewSimSession builds a simulated session of app on clu.
func NewSimSession(clu *cluster.Cluster, app *apps.App, cfg SimConfig) *Session {
	s, _ := newSimSession(clu, app.Profile(), app.Name(), app.TotalUnits(), app.DataUnits(), cfg)
	return s
}

// newSimSession is the engine-setup core shared by the closed-system
// constructor above and the service constructor (service.go), which differ
// only in where profile and totals come from. It also returns the engine,
// so the service constructor can size its event heap.
func newSimSession(clu *cluster.Cluster, profile device.KernelProfile, appName string,
	totalUnits, dataUnits int64, cfg SimConfig) (*Session, *simEngine) {
	ov := DefaultOverheads()
	if cfg.Overheads != nil {
		ov = *cfg.Overheads
	}
	s := &Session{
		clu:       clu,
		pus:       clu.PUs(),
		profile:   profile,
		appName:   appName,
		overheads: ov,
		chargeOn:  true,
		retry:     cfg.Retry.normalized(),
		spec:      cfg.Spec.normalized(),
		loc:       cfg.Locality.normalized(),
		health:    cfg.Health.normalized(),
	}
	s.initCommon(totalUnits)
	n := len(s.pus)
	s.enforceMem = cfg.EnforceMemory
	s.memCap = make([]float64, n)
	for i, pu := range s.pus {
		s.memCap[i] = pu.Dev.MemGB * 1e9
	}
	s.initLocality(dataUnits, s.memCap)
	se := &simEngine{
		eng:      sim.New(),
		session:  s,
		nicOfPU:  make([]*sim.Resource, n),
		pcieOfPU: make([]*sim.Resource, n),
		nicName:  make([]string, n),
		pcieName: make([]string, n),
	}
	// One NIC and one PCIe resource per machine, built in cluster order.
	// Every slice is sized from the catalog up front: at 10k PUs the
	// append-growth copies otherwise show up in the session-construction
	// profile.
	se.machines = make([]*cluster.Machine, 0, len(clu.Machines))
	se.nicRes = make([]*sim.Resource, 0, len(clu.Machines))
	se.pcieRes = make([]*sim.Resource, 0, len(clu.Machines))
	se.puRes = make([]*sim.Resource, 0, n)
	machineIdx := make(map[*cluster.Machine]int, len(clu.Machines))
	for i, m := range clu.Machines {
		machineIdx[m] = i
		se.machines = append(se.machines, m)
		se.nicRes = append(se.nicRes, sim.NewResource(se.eng, m.Name+"/nic"))
		se.pcieRes = append(se.pcieRes, sim.NewResource(se.eng, m.Name+"/pcie"))
	}
	for i, pu := range s.pus {
		se.puRes = append(se.puRes, sim.NewResource(se.eng, pu.Name()))
		mi := machineIdx[pu.Machine]
		if !pu.Machine.IsMaster {
			se.nicOfPU[i] = se.nicRes[mi]
			se.nicName[i] = se.nicRes[mi].Name()
		}
		if pu.IsGPU() {
			se.pcieOfPU[i] = se.pcieRes[mi]
			se.pcieName[i] = se.pcieRes[mi].Name()
		}
	}
	// Every in-flight block holds at most one pending completion event;
	// pre-sizing past the PU count keeps the steady state allocation-free.
	se.eng.Grow(4*n + 16)
	// Pre-populate the completion-payload pool to the expected in-flight
	// ceiling (one block per unit, plus speculation headroom): steady-state
	// launches then always pop instead of allocating mid-run.
	se.freeComps = make([]*simCompletion, 0, n+16)
	for i := 0; i < n; i++ {
		se.freeComps = append(se.freeComps, &simCompletion{eng: se})
	}
	s.eng = se
	s.startHeartbeatPump()
	return s, se
}

func (e *simEngine) now() float64 { return e.eng.Now() }

func (e *simEngine) at(t float64, fn func()) {
	if t < e.eng.Now() {
		t = e.eng.Now()
	}
	e.eng.At(t, fn)
}

func (e *simEngine) drive() error {
	e.eng.Run()
	return nil
}

// linkBusy reports NIC and PCIe occupancy for every machine.
func (e *simEngine) linkBusy() map[string]float64 {
	out := make(map[string]float64, 2*len(e.machines))
	for i := range e.machines {
		out[e.nicRes[i].Name()] = e.nicRes[i].BusySeconds()
		out[e.pcieRes[i].Name()] = e.pcieRes[i].BusySeconds()
	}
	return out
}

// launch chains the block through the communication links and the device,
// reserving each resource in order: NIC (remote machines) → PCIe (GPUs) →
// the processing unit itself. All reservations are computed analytically at
// submission; a single pooled event fires at kernel completion.
func (e *simEngine) launch(pu *cluster.PU, seq int, lo, hi int64, earliest float64, retries int) {
	units := hi - lo
	rec := TaskRecord{Seq: seq, PU: pu.ID, Lo: lo, Hi: hi, Units: units, SubmitTime: e.eng.Now()}

	t := e.eng.Now()
	if earliest > t {
		t = earliest // master still busy computing the schedule
	}
	prof := e.session.profileFor(seq)
	if !e.session.checkMemory(pu.ID, seq, units) {
		return // typed violation recorded; the queue drains and Run reports it
	}
	bytes := e.session.fetchBytes(pu.ID, seq, lo, hi)
	rec.TransferStart = t
	t = e.transfer(pu, bytes, units, t)
	rec.TransferEnd = t

	exec := pu.Dev.ExecSeconds(prof, float64(units))
	if exec != exec || exec < 0 || exec > 1e18 {
		// A failed (speed factor 0) device would never complete. With a
		// retry policy the block is requeued onto a survivor; otherwise
		// schedulers must stop assigning to failed devices rather than
		// hang the run — the completion event is never scheduled, so the
		// queue drains and Run returns the violation.
		if e.session.retry != nil {
			if pu.Dev.Failed() {
				e.session.NoteDeviceDown(pu.ID)
			}
			e.session.requeueBlock(pu.ID, seq, lo, hi, retries)
			return
		}
		e.session.fail(fmt.Errorf("starpu: block %d (%d units) launched on %s: %w",
			seq, units, pu.Name(), ErrFailedDevice))
		return
	}
	start, end := e.puRes[pu.ID].AcquireAfter(t, exec, nil)
	rec.ExecStart, rec.ExecEnd = start, end

	c := e.acquire(rec, retries, e.session.leaseTokenFor(pu.ID, seq))
	e.eng.Schedule(end, c)
	if e.session.spec != nil {
		// Arm the watchdog only when this copy will actually miss its
		// deadline: simulated completion times are final at launch (later
		// speed changes never retro-affect a scheduled event), so a block
		// on pace needs no timer at all.
		if wd := e.session.watchdogDeadline(pu.ID, units); wd > 0 {
			c.deadline = rec.TransferStart + wd
			if end > c.deadline {
				gen := c.gen
				e.eng.At(c.deadline, func() { e.watchdogFire(c, gen) })
			}
		}
	}
}

// watchdogFire runs at a block's deadline when its kernel is known to still
// be executing: it charges the expiry to the straggling unit and launches a
// backup copy on the least-loaded healthy one. gen guards against the
// pooled payload having been recycled for a different block (impossible
// while the completion event is pending, but cheap to assert).
func (e *simEngine) watchdogFire(c *simCompletion, gen uint64) {
	if c.gen != gen || c.aborted || c.twin != nil {
		return
	}
	s := e.session
	if s.leases != nil && !s.copyHoldsLease(c.rec.PU, c.rec.Seq, c.token) {
		return // the lease moved on; never speculate a fenced copy
	}
	orig := c.rec.PU
	s.noteExpiry(orig)
	target := s.pickSpecTarget(orig, c.rec.Lo, c.rec.Hi)
	if target < 0 {
		return // nowhere healthy to speculate; wait for the original
	}
	if e.launchBackup(c, s.pus[target]) {
		s.inflightPU[target]++
		s.noteSpeculate(orig, target, c.rec.Seq, c.rec.Units)
	}
}

// launchBackup schedules a speculative copy of orig's block on pu, twinned
// with the original so whichever fires first cancels the other. It reports
// false — and touches no resources — when pu cannot execute the block.
func (e *simEngine) launchBackup(orig *simCompletion, pu *cluster.PU) bool {
	units := orig.rec.Units
	prof := e.session.profileFor(orig.rec.Seq)
	exec := pu.Dev.ExecSeconds(prof, float64(units))
	if exec != exec || exec < 0 || exec > 1e18 {
		return false
	}
	t := e.eng.Now()
	rec := TaskRecord{
		Seq: orig.rec.Seq, PU: pu.ID, Lo: orig.rec.Lo, Hi: orig.rec.Hi,
		Units: units, SubmitTime: t, TransferStart: t,
	}
	bytes := e.session.fetchBytes(pu.ID, rec.Seq, rec.Lo, rec.Hi)
	rec.TransferEnd = e.transfer(pu, bytes, units, t)
	rec.ExecStart, rec.ExecEnd = e.puRes[pu.ID].AcquireAfter(rec.TransferEnd, exec, nil)

	c := e.acquire(rec, orig.retries, e.session.grantSpecLease(rec.Seq, pu.ID))
	c.backup = true
	c.twin = orig
	orig.twin = c
	if s := e.session; s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvTaskSubmit, Time: t,
			PU: pu.ID, Seq: rec.Seq, Units: units,
		})
	}
	e.eng.Schedule(rec.ExecEnd, c)
	return true
}

// transfer chains a block's input of the given bytes through pu's links,
// starting no earlier than t — the NIC for remote machines, then PCIe for
// GPUs — and returns when the data reaches the device.
func (e *simEngine) transfer(pu *cluster.PU, bytes float64, units int64, t float64) float64 {
	if nic := e.nicOfPU[pu.ID]; nic != nil && bytes > 0 {
		var s0 float64
		s0, t = nic.AcquireAfter(t, pu.Machine.NIC.TransferSeconds(bytes), nil)
		e.session.emitLink(e.nicName[pu.ID], s0, t, units)
	}
	if pcie := e.pcieOfPU[pu.ID]; pcie != nil && bytes > 0 {
		var s0 float64
		s0, t = pcie.AcquireAfter(t, pu.Machine.PCIe.TransferSeconds(bytes), nil)
		e.session.emitLink(e.pcieName[pu.ID], s0, t, units)
	}
	return t
}

// acquire pops a completion payload from the pool (allocating only when it
// is dry), fills in the copy's record, retry count and fencing token, and
// registers it as outstanding under a RetryPolicy.
func (e *simEngine) acquire(rec TaskRecord, retries int, token uint64) *simCompletion {
	var c *simCompletion
	if n := len(e.freeComps); n > 0 {
		c = e.freeComps[n-1]
		e.freeComps[n-1] = nil
		e.freeComps = e.freeComps[:n-1]
	} else {
		c = &simCompletion{eng: e}
	}
	c.rec = rec
	c.retries = retries
	c.token = token
	if e.session.retry != nil {
		e.outstanding = append(e.outstanding, c)
	}
	return c
}

// recycle retires a fired or abandoned payload: it leaves the outstanding
// list, its per-copy state resets, gen advances so stale watchdog closures
// stand down, and it returns to the pool.
func (e *simEngine) recycle(c *simCompletion) {
	if e.session.retry != nil {
		e.dropOutstanding(c)
	}
	c.aborted = false
	c.twin = nil
	c.backup = false
	c.deadline = 0
	c.token = 0
	c.revoked = false
	c.gen++
	e.freeComps = append(e.freeComps, c)
}

// dropOutstanding removes c from the outstanding list, preserving launch
// order so abort-time requeue decisions stay reproducible.
func (e *simEngine) dropOutstanding(c *simCompletion) {
	for i, o := range e.outstanding {
		if o == c {
			e.outstanding = append(e.outstanding[:i], e.outstanding[i+1:]...)
			return
		}
	}
}

// abortInFlight implements engine: every block pending on pu whose kernel
// has not finished by now is marked aborted (its completion event becomes a
// recycle-only no-op) and requeued at the failure time. A copy whose twin
// is still live elsewhere is not requeued — the surviving copy completes
// the block — so only its in-flight account is settled.
func (e *simEngine) abortInFlight(pu int) {
	now := e.eng.Now()
	for _, c := range e.outstanding {
		if c.aborted || c.rec.PU != pu || c.rec.ExecEnd <= now {
			continue
		}
		c.aborted = true
		if t := c.twin; t != nil {
			c.twin = nil
			t.twin = nil
			e.session.inflightPU[pu]--
			continue
		}
		e.session.requeueBlock(pu, c.rec.Seq, c.rec.Lo, c.rec.Hi, c.retries)
	}
}

// dropInFlight implements engine: the device died, so every lease-holding
// copy executing on it is destroyed — its event becomes a recycle-only
// no-op, its in-flight account settles, and (for primary slots) the block
// is recorded lost so the eventual suspicion- or recovery-driven
// reassignment knows the copy is already settled. Unlike abortInFlight,
// nothing is requeued here: under a HealthPolicy only the failure detector
// (or a recovery) moves blocks. Copies whose lease already moved (stale
// token) were settled at revocation and are skipped.
func (e *simEngine) dropInFlight(pu int) {
	s := e.session
	now := e.eng.Now()
	for _, c := range e.outstanding {
		if c.aborted || c.rec.PU != pu || c.rec.ExecEnd <= now {
			continue
		}
		if !s.copyHoldsLease(pu, c.rec.Seq, c.token) {
			continue
		}
		c.aborted = true
		if t := c.twin; t != nil {
			c.twin, t.twin = nil, nil
		}
		s.inflightPU[pu]--
		if l := s.leases.Get(c.rec.Seq); l != nil && l.Owner == pu {
			s.markLost(pu, c.rec.Seq)
		}
	}
}

// revokeCopies implements engine: the lease of seq moved off pu, so any
// still-live copy there is detached — twin links severed so the surviving
// copy completes solo, in-flight account settled now (the fenced delivery
// settles nothing). The copy itself keeps running; when it fires, its stale
// token sends it down the fencing path.
func (e *simEngine) revokeCopies(pu, seq int) int {
	detached := 0
	for _, c := range e.outstanding {
		if c.aborted || c.revoked || c.rec.PU != pu || c.rec.Seq != seq {
			continue
		}
		c.revoked = true
		if t := c.twin; t != nil {
			c.twin, t.twin = nil, nil
		}
		e.session.inflightPU[pu]--
		detached++
	}
	return detached
}

// abandonPartitioned handles a completion stuck behind a permanent
// partition: the result will never reach the master, so the copy is
// destroyed. A lease-holding copy settles and records the block lost —
// suspicion then relaunches it elsewhere; without health state the block is
// requeued directly (or the run fails when it cannot be).
func (e *simEngine) abandonPartitioned(c *simCompletion) {
	s := e.session
	pu, seq := c.rec.PU, c.rec.Seq
	lo, hi, retries := c.rec.Lo, c.rec.Hi, c.retries
	held := s.leases != nil && s.copyHoldsLease(pu, seq, c.token)
	if t := c.twin; t != nil {
		t.twin = nil
	}
	e.recycle(c)
	if s.leases != nil {
		if held {
			s.inflightPU[pu]--
			if l := s.leases.Get(seq); l != nil && l.Owner == pu {
				s.markLost(pu, seq)
			}
		}
		return // the failure detector (or a recovery) moves the block
	}
	if s.retry != nil {
		s.requeueBlock(pu, seq, lo, hi, retries)
		return
	}
	s.fail(fmt.Errorf("starpu: block %d (%d units) stranded behind a permanent partition on %s: %w",
		seq, hi-lo, s.pus[pu].Name(), ErrFailedDevice))
}
