package starpu

import (
	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/sim"
)

// simEngine executes blocks on the discrete-event simulator against the
// cluster's device models. Each processing unit is a FIFO resource (one
// kernel at a time); each machine's NIC and PCIe bus are FIFO resources
// shared by that machine's units, so concurrent transfers to one node
// serialize as they would on real links.
//
// All per-launch lookups are precomputed in NewSimSession: the NIC/PCIe
// resources and their telemetry names are indexed per PU (no map lookups on
// the hot path), and each copy's completion is the pooled copy itself
// scheduled through sim.Engine.Schedule, so a steady-state launch→complete
// cycle performs no heap allocations.
type simEngine struct {
	eng     *sim.Engine
	session *Session
	puRes   []*sim.Resource

	// Per-PU precomputed link routing (indexed by PU ID): nil entries mean
	// the hop does not apply (master-local NIC, CPU-side PCIe). machOf is
	// the PU's machine index mi: its NIC is link 2·mi of the session's
	// coverage table and its PCIe link 2·mi+1.
	nicOfPU  []*sim.Resource
	pcieOfPU []*sim.Resource
	machOf   []int32
	machines []*cluster.Machine
	nicRes   []*sim.Resource // per machine, cluster order (for linkBusy)
	pcieRes  []*sim.Resource
}

// SimConfig configures a simulated session.
type SimConfig struct {
	// Overheads charges scheduler computations to virtual time. The zero
	// value means DefaultOverheads; use NoOverheads to disable.
	Overheads *OverheadModel
	// Retry enables runtime failover: blocks in flight on a failing unit are
	// requeued after a backoff instead of erroring the run (see retryMax).
	// Off preserves the legacy fail-fast behavior exactly.
	Retry bool
	// Spec, when non-nil, enables tail tolerance: watchdog deadlines per
	// block and speculative backup copies for expired ones. See
	// SpeculationPolicy; nil preserves the legacy behavior exactly.
	Spec *SpeculationPolicy
	// Health, when non-nil, enables heartbeat failure detection and
	// lease-fenced block ownership: the master learns about failures from
	// missing heartbeats (phi-accrual or deadline) instead of the engine's
	// oracle, requeues on suspicion, and fences stale late completions. See
	// HealthPolicy; nil preserves the legacy behavior exactly. Implies
	// Retry.
	Health *HealthPolicy
	// Locality enables data-residency tracking: shipped block inputs stay
	// resident on their device (LRU-bounded by device.Spec.MemGB), transfers
	// are charged only on a genuine miss, and placement decisions weigh
	// where the data already lives (locality.go). Off preserves the legacy
	// re-pay-every-transfer behavior exactly.
	Locality bool
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
		retry:     cfg.Retry,
		spec:      cfg.Spec.normalized(),
		health:    cfg.Health.normalized(),
	}
	s.initCommon(totalUnits)
	n := len(s.pus)
	if cfg.Locality {
		memCap := make([]float64, n)
		for i, pu := range s.pus {
			memCap[i] = pu.Dev.MemGB * 1e9
		}
		s.initLocality(dataUnits, memCap)
	}
	se := &simEngine{
		eng:      sim.New(),
		session:  s,
		nicOfPU:  make([]*sim.Resource, n),
		pcieOfPU: make([]*sim.Resource, n),
		machOf:   make([]int32, n),
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
		se.machOf[i] = int32(mi)
		if !pu.Machine.IsMaster {
			se.nicOfPU[i] = se.nicRes[mi]
		}
		if pu.IsGPU() {
			se.pcieOfPU[i] = se.pcieRes[mi]
		}
	}
	// Every in-flight copy holds at most one pending completion event;
	// pre-sizing past the PU count keeps the steady state allocation-free.
	se.eng.Grow(4*n + 16)
	s.initLinks(2 * len(clu.Machines))
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

// launch chains copy c through the communication links and the device,
// reserving each resource in order: NIC (remote machines) → PCIe (GPUs) →
// the processing unit itself. All reservations are computed analytically at
// launch; the copy itself is the one event that fires at kernel completion,
// and it stays cancellable until then. A unit that cannot run the copy (a
// failed device with speed factor 0, or a broken cost model) reports false:
// a first launch or relaunch has already moved its input by then, as on a
// real link, while a backup reserves nothing.
func (e *simEngine) launch(c *blockCopy, earliest float64) bool {
	s := e.session
	pu := s.pus[c.rec.PU]
	units := c.rec.Units
	exec := pu.Dev.ExecSeconds(s.profileFor(c.rec.Seq), float64(units))
	runnable := exec == exec && exec >= 0 && exec <= 1e18
	if !runnable && c.backup {
		return false
	}
	t := e.eng.Now()
	if earliest > t {
		t = earliest // master still busy computing the schedule
	}
	bytes := s.fetchBytes(pu.ID, c.rec.Seq, c.rec.Lo, c.rec.Hi)
	c.rec.TransferStart = t
	t = e.transfer(pu, bytes, units, t)
	c.rec.TransferEnd = t
	if !runnable {
		return false
	}
	c.rec.ExecStart, c.rec.ExecEnd = e.puRes[pu.ID].AcquireAfter(t, exec, nil)
	c.cancelBy = c.rec.ExecEnd
	e.eng.Schedule(c.rec.ExecEnd, c)
	return true
}

// transfer chains a block's input of the given bytes through pu's links,
// starting no earlier than t — the NIC for remote machines, then PCIe for
// GPUs — and returns when the data reaches the device.
func (e *simEngine) transfer(pu *cluster.PU, bytes float64, units int64, t float64) float64 {
	if nic := e.nicOfPU[pu.ID]; nic != nil && bytes > 0 {
		var s0 float64
		s0, t = nic.AcquireAfter(t, pu.Machine.NIC.TransferSeconds(bytes), nil)
		e.session.emitLink(2*int(e.machOf[pu.ID]), nic.Name(), s0, t, units)
	}
	if pcie := e.pcieOfPU[pu.ID]; pcie != nil && bytes > 0 {
		var s0 float64
		s0, t = pcie.AcquireAfter(t, pu.Machine.PCIe.TransferSeconds(bytes), nil)
		e.session.emitLink(2*int(e.machOf[pu.ID])+1, pcie.Name(), s0, t, units)
	}
	return t
}
