package fault

import (
	"math"

	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

// Apply validates the schedule against clu and installs every fault as
// engine-clock callbacks on sess, a session over clu. On a live session the
// callbacks fire on the wall clock, where only device faults take effect.
// Call before Session.Run. Determinism on the simulator: installation is
// spec-order, callbacks are serialized by the event queue, and nothing here
// consumes randomness, so the same (schedule, cluster seed) reproduces the
// same run bit-for-bit.
func (s Schedule) Apply(sess *starpu.Session, clu *cluster.Cluster) error {
	pus := clu.PUs()
	if err := s.Validate(len(pus), len(clu.Machines)); err != nil {
		return err
	}
	a := &applier{
		sess: sess,
		clu:  clu,
		pus:  pus,
		dead: make([]bool, len(pus)),
		mult: make([][]float64, len(pus)),
		nic:  make([]*linkState, len(clu.Machines)),
		pcie: make([]*linkState, len(clu.Machines)),
	}
	for _, f := range s.Specs {
		if err := a.install(f); err != nil {
			return err
		}
	}
	return nil
}

// linkState tracks one link's pre-fault baseline plus one slot per
// installed fault, so overlapping transients compose and unwind in any
// order: bandwidth is base × Π bw-slots, latency is base + Σ lat-slots.
type linkState struct {
	base cluster.Link
	bw   []float64 // multiplier per slot, 1 when inactive
	lat  []float64 // added seconds per slot, 0 when inactive
}

// applier owns the mutable fault state of one session. Device faults
// likewise hold one multiplier slot each (1 when inactive): the device's
// factor is Π slots, or 0 once dead — death always wins, and a brown-out
// ending cannot resurrect a separately killed device.
type applier struct {
	sess *starpu.Session
	clu  *cluster.Cluster
	pus  []*cluster.PU
	dead []bool
	mult [][]float64
	nic  []*linkState
	pcie []*linkState
}

// recomputePU folds the unit's slots into its speed factor and notifies the
// runtime, which aborts/requeues in-flight work or records a recovery.
func (a *applier) recomputePU(id int) {
	f := 1.0
	if a.dead[id] {
		f = 0
	} else {
		for _, m := range a.mult[id] {
			f *= m
		}
	}
	a.pus[id].Dev.SetSpeedFactor(f)
	a.sess.DeviceStateChanged(id)
}

// link returns (creating on first use) the state of machine mi's link,
// capturing the baseline before any fault fires.
func (a *applier) link(mi int, kind LinkKind) *linkState {
	states := a.nic
	if kind == PCIe {
		states = a.pcie
	}
	if states[mi] == nil {
		m := a.clu.Machines[mi]
		base := m.NIC
		if kind == PCIe {
			base = m.PCIe
		}
		states[mi] = &linkState{base: base}
	}
	return states[mi]
}

// recomputeLink folds the link's slots into the machine's live Link value;
// the sim engine reads it at every launch, so transfers submitted after
// this instant see the new bandwidth and latency.
func (a *applier) recomputeLink(mi int, kind LinkKind) {
	st := a.link(mi, kind)
	l := st.base
	for _, f := range st.bw {
		l.BandwidthBps *= f
	}
	for _, d := range st.lat {
		l.LatencySec += d
	}
	if kind == PCIe {
		a.clu.Machines[mi].PCIe = l
	} else {
		a.clu.Machines[mi].NIC = l
	}
}

// deviceSlot allocates one multiplier slot on the unit.
func (a *applier) deviceSlot(pu int) int {
	a.mult[pu] = append(a.mult[pu], 1)
	return len(a.mult[pu]) - 1
}

// install schedules one validated spec's engine-clock events.
func (a *applier) install(f FaultSpec) error {
	at := func(t float64, fn func()) error { return a.sess.ScheduleAt(t, fn) }
	switch f.Kind {
	case DeviceDeath:
		pu := f.PU
		return at(f.At, func() {
			a.dead[pu] = true
			a.recomputePU(pu)
		})
	case Degrade:
		pu, slot := f.PU, a.deviceSlot(f.PU)
		if f.Ramp <= 0 {
			sev := f.Severity
			return at(f.At, func() {
				a.mult[pu][slot] = sev
				a.recomputePU(pu)
			})
		}
		// Staircase down to Severity: step i of rampSteps lands at
		// At + Ramp·i/rampSteps with factor 1 + (Severity−1)·i/rampSteps.
		for i := 1; i <= rampSteps; i++ {
			frac := float64(i) / rampSteps
			v := 1 + (f.Severity-1)*frac
			if err := at(f.At+f.Ramp*frac, func() {
				a.mult[pu][slot] = v
				a.recomputePU(pu)
			}); err != nil {
				return err
			}
		}
		return nil
	case BrownOut:
		pu, slot := f.PU, a.deviceSlot(f.PU)
		if err := at(f.At, func() {
			a.mult[pu][slot] = 0
			a.recomputePU(pu)
		}); err != nil {
			return err
		}
		return at(f.At+f.Duration, func() {
			a.mult[pu][slot] = 1
			a.recomputePU(pu)
		})
	case Straggler:
		pu, slot := f.PU, a.deviceSlot(f.PU)
		sev := f.Severity
		if err := at(f.At, func() {
			a.mult[pu][slot] = sev
			a.recomputePU(pu)
		}); err != nil {
			return err
		}
		return at(f.At+f.Duration, func() {
			a.mult[pu][slot] = 1
			a.recomputePU(pu)
		})
	case LinkSlow:
		st := a.link(f.Machine, f.Link)
		st.bw = append(st.bw, 1)
		slot := len(st.bw) - 1
		mi, kind, sev := f.Machine, f.Link, f.Severity
		if err := at(f.At, func() {
			st.bw[slot] = sev
			a.recomputeLink(mi, kind)
		}); err != nil {
			return err
		}
		if f.Duration <= 0 {
			return nil
		}
		return at(f.At+f.Duration, func() {
			st.bw[slot] = 1
			a.recomputeLink(mi, kind)
		})
	case LatencySpike:
		st := a.link(f.Machine, f.Link)
		st.lat = append(st.lat, 0)
		slot := len(st.lat) - 1
		mi, kind, sev := f.Machine, f.Link, f.Severity
		if err := at(f.At, func() {
			st.lat[slot] = sev
			a.recomputeLink(mi, kind)
		}); err != nil {
			return err
		}
		if f.Duration <= 0 {
			return nil
		}
		return at(f.At+f.Duration, func() {
			st.lat[slot] = 0
			a.recomputeLink(mi, kind)
		})
	case Partition:
		pu, until := f.PU, math.Inf(1)
		if f.Duration > 0 {
			until = f.At + f.Duration
		}
		return at(f.At, func() { a.sess.InjectPartition(pu, until) })
	case HeartbeatLoss:
		pu, until := f.PU, math.Inf(1)
		if f.Duration > 0 {
			until = f.At + f.Duration
		}
		return at(f.At, func() { a.sess.InjectHeartbeatLoss(pu, until) })
	}
	return nil
}
