package starpu

import (
	"testing"
	"time"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/telemetry"
	"plbhec/internal/workload"
)

// Chaos composition: the open-system service mode layered over the
// resilience machinery. A device dies mid-stream and later recovers, or
// turns into a straggler under speculation — the request accounting must
// stay conserved, every dispatched unit must complete exactly once, and the
// stream must keep flowing on the surviving units.

// svcChaosPolicy is a single-app half-load stream long enough to straddle a
// fault window at t in [1, 2.5].
func svcChaosPolicy(clu *cluster.Cluster) ServicePolicy {
	prof := apps.NewBlackScholes(apps.BlackScholesConfig{Options: 1 << 16}).Profile()
	const units = 64
	return ServicePolicy{
		Apps: []ServiceApp{{
			Name: "bs", Profile: prof, SLOSeconds: 2,
			Arrivals: workload.Spec{
				Kind: workload.Poisson, Units: units, Seed: 13,
				Rate: 0.5 * svcCapacityRPS(clu, prof, units),
			},
		}},
		Horizon: 5,
		Seed:    21,
	}
}

// TestServiceChaosDeviceDeathAndRecovery kills a unit mid-stream and brings
// it back: the run must survive on retries, cover every dispatched unit
// exactly once, keep the admission accounts conserved, and resume placing
// work on the recovered unit.
func TestServiceChaosDeviceDeathAndRecovery(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 6})
	s, err := NewServiceSimSession(clu, svcChaosPolicy(clu), SimConfig{
		Retry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const target = 1
	const failAt, recoverAt = 1.0, 2.5
	dev := s.PUs()[target].Dev
	if err := s.ScheduleAt(failAt, func() {
		dev.SetSpeedFactor(0)
		s.DeviceStateChanged(target)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleAt(recoverAt, func() {
		dev.SetSpeedFactor(1)
		s.DeviceStateChanged(target)
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunService()
	if err != nil {
		t.Fatalf("death mid-stream killed the run: %v", err)
	}
	sv := rep.Service
	checkServiceConservation(t, sv)
	checkExactlyOnce(t, rep.Records, rep.TotalUnits)
	if sv.QueuedAtEnd != 0 {
		t.Errorf("drain left %d requests queued", sv.QueuedAtEnd)
	}
	if sv.Apps[0].RequestsDone != sv.Apps[0].Admitted {
		t.Errorf("admitted %d but completed %d", sv.Apps[0].Admitted, sv.Apps[0].RequestsDone)
	}
	if res := rep.Resilience[target]; res.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1 (%+v)", res.Recoveries, res)
	}
	// Mid-stream recovery: the revived unit takes work again.
	postRecovery := false
	for _, r := range rep.Records {
		if r.PU == target && r.ExecStart > recoverAt {
			postRecovery = true
			break
		}
	}
	if !postRecovery {
		t.Error("recovered unit never ran another block")
	}
}

// TestServiceChaosStragglerSpeculation turns a unit into a 20x straggler
// mid-stream under a speculation policy: backup copies win, exactly-once
// holds across the duplicated executions, the accounts stay conserved, and
// the healthy units carry the half-load stream without shedding.
//
// A simulated block's duration is fixed at launch, and the ETA dispatcher
// reads the live speed factor, so a unit slowed between two dispatches
// simply stops receiving work and no watchdog ever fires. The slowdown
// therefore lands on the target's first submit at t >= 1: the submit event
// precedes the launch, so that block is on the target when it slows and
// runs 20x long by construction.
func TestServiceChaosStragglerSpeculation(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 16})
	s, err := NewServiceSimSession(clu, svcChaosPolicy(clu), SimConfig{
		Retry: true,
		Spec: &SpeculationPolicy{
			DeadlineMultiplier: 2, MinObservations: 1, SlowAfter: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The ETA dispatcher concentrates load on the fast units, so the
	// straggler must be one of them for the fault to matter: PU 1 is the
	// machine-A GPU, busy throughout the stream.
	const target = 1
	slowed := false
	tel := telemetry.New()
	tel.Attach(sinkFunc(func(ev telemetry.Event) {
		if !slowed && ev.Kind == telemetry.EvTaskSubmit && ev.PU == target && ev.Time >= 1 {
			slowed = true
			s.PUs()[target].Dev.SetSpeedFactor(0.05)
		}
	}))
	s.AttachTelemetry(tel)
	rep, err := s.RunService()
	if err != nil {
		t.Fatalf("straggler killed the run: %v", err)
	}
	if !slowed {
		t.Fatal("the target received no block after t = 1; the fault never applied")
	}
	sv := rep.Service
	checkServiceConservation(t, sv)
	checkExactlyOnce(t, rep.Records, rep.TotalUnits)
	if sv.Apps[0].RequestsDone != sv.Apps[0].Admitted {
		t.Errorf("admitted %d but completed %d", sv.Apps[0].Admitted, sv.Apps[0].RequestsDone)
	}
	if rep.Resilience[target].Speculations < 1 {
		t.Errorf("20x straggler tripped no watchdog: %+v", rep.Resilience[target])
	}
	if sv.Shed != 0 {
		t.Errorf("healthy units shed %d of %d requests at half load", sv.Shed, sv.Offered)
	}
}

// TestServiceSlowMarksKeepLastUnit soft-blacklists every unit through the
// watchdog's own accounting before the stream starts. No watchdog can arm
// (the baseline needs more observations than the run makes), so no block
// finished within deadline ever lifts a mark. The marks must not empty the
// pool: the stream is served in full on the marked units.
func TestServiceSlowMarksKeepLastUnit(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 16})
	spec := &SpeculationPolicy{MinObservations: 1 << 30, SlowAfter: 2}
	s, err := NewServiceSimSession(clu, svcChaosPolicy(clu), SimConfig{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ScheduleAt(0, func() {
		for pu := range s.PUs() {
			for k := 0; k < spec.SlowAfter; k++ {
				s.noteExpiry(pu)
			}
			if !s.SlowBlacklisted(pu) {
				t.Fatalf("unit %d not marked after %d expirations", pu, spec.SlowAfter)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunService()
	if err != nil {
		t.Fatal(err)
	}
	sv := rep.Service
	checkServiceConservation(t, sv)
	checkExactlyOnce(t, rep.Records, rep.TotalUnits)
	if sv.Admitted == 0 || sv.Shed != 0 || sv.Admitted != sv.Offered {
		t.Errorf("every unit marked slow: offered %d, admitted %d, shed %d; want all admitted",
			sv.Offered, sv.Admitted, sv.Shed)
	}
	if sv.Apps[0].RequestsDone != sv.Apps[0].Admitted {
		t.Errorf("admitted %d but completed %d", sv.Apps[0].Admitted, sv.Apps[0].RequestsDone)
	}
	for pu, r := range rep.Resilience {
		if !r.SlowBlacklisted {
			t.Errorf("unit %d lost its mark; the pool was never all-slow", pu)
		}
	}
}

// TestServiceHealthComposition runs the open system under Retry+Spec+Health
// on both engines through each fault the failure detector must handle: a
// device death, a heartbeat loss and a finite partition of one unit. Every
// dispatched unit completes exactly once, the admission accounts stay
// conserved, nothing is left in flight, the faulty unit is suspected, and
// the heartbeat pumps keep every other unit beating for the whole stream.
func TestServiceHealthComposition(t *testing.T) {
	faults := []struct {
		name   string
		inject func(s *Session, pu int, until float64)
	}{
		{"death", func(s *Session, pu int, _ float64) {
			s.PUs()[pu].Dev.SetSpeedFactor(0)
			s.DeviceStateChanged(pu)
		}},
		{"heartbeat-loss", func(s *Session, pu int, until float64) { s.InjectHeartbeatLoss(pu, until) }},
		{"partition", func(s *Session, pu int, until float64) { s.InjectPartition(pu, until) }},
	}
	check := func(t *testing.T, s *Session, rep *Report, target int) {
		t.Helper()
		checkServiceConservation(t, rep.Service)
		checkExactlyOnce(t, rep.Records, rep.TotalUnits)
		checkSettled(t, s)
		if a := rep.Service.Apps[0]; a.RequestsDone != a.Admitted {
			t.Errorf("admitted %d but completed %d", a.Admitted, a.RequestsDone)
		}
		for i, r := range rep.Resilience {
			if i == target && r.Suspicions == 0 {
				t.Errorf("faulty unit %d was never suspected: %+v", i, r)
			}
			if i != target && r.Suspicions != 0 {
				t.Errorf("healthy unit %d suspected %d times", i, r.Suspicions)
			}
		}
	}
	spec := &SpeculationPolicy{DeadlineMultiplier: 2, MinObservations: 1, SlowAfter: 2}
	for _, f := range faults {
		t.Run("sim/"+f.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				clu := cluster.TableI(cluster.Config{Machines: 2, Seed: seed})
				s, err := NewServiceSimSession(clu, svcChaosPolicy(clu), SimConfig{
					Retry: true, Spec: spec, Health: DefaultHealthPolicy(),
				})
				if err != nil {
					t.Fatal(err)
				}
				const target = 1
				if err := s.ScheduleAt(1.0, func() { f.inject(s, target, 2.0) }); err != nil {
					t.Fatal(err)
				}
				rep, err := s.RunService()
				if err != nil {
					t.Fatalf("cluster seed %d: %v", seed, err)
				}
				check(t, s, rep, target)
			}
		})
	}
	for _, f := range faults {
		t.Run("live/"+f.name, func(t *testing.T) {
			prof := apps.NewBlackScholes(apps.BlackScholesConfig{Options: 1 << 14}).Profile()
			pol := ServicePolicy{
				Apps: []ServiceApp{{Name: "bs", Profile: prof,
					Arrivals: workload.Spec{Kind: workload.Poisson, Rate: 100, Units: 8, Seed: 3}}},
				Horizon: 0.4,
				Seed:    5,
			}
			k := kernelFunc(func(lo, hi int64) { time.Sleep(2 * time.Millisecond) })
			s, err := NewServiceLiveSession([]LiveKernel{k}, LiveConfig{
				Workers: []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}, {Name: "w2"}},
				Retry:   true,
				Spec:    spec,
				Health:  liveHealthPolicy(),
			}, pol)
			if err != nil {
				t.Fatal(err)
			}
			const target = 1
			if err := s.ScheduleAt(0.1, func() { f.inject(s, target, 0.25) }); err != nil {
				t.Fatal(err)
			}
			rep, err := s.RunService()
			if err != nil {
				t.Fatal(err)
			}
			check(t, s, rep, target)
		})
	}
}
