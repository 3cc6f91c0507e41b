package fault

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
	"plbhec/internal/stats"
)

func tableI(machines int, seed int64) *cluster.Cluster {
	return cluster.TableI(cluster.Config{
		Machines: machines, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma,
	})
}

func mmSession(clu *cluster.Cluster, n int64, retry bool) *starpu.Session {
	app := apps.NewMatMul(apps.MatMulConfig{N: n})
	return starpu.NewSimSession(clu, app, starpu.SimConfig{Retry: retry})
}

func TestValidateRejects(t *testing.T) {
	bad := []FaultSpec{
		{Kind: DeviceDeath, At: math.NaN(), PU: 0},
		{Kind: DeviceDeath, At: math.Inf(1), PU: 0},
		{Kind: DeviceDeath, At: -1, PU: 0},
		{Kind: DeviceDeath, At: 1, PU: -1},
		{Kind: DeviceDeath, At: 1, PU: 4},
		{Kind: Degrade, At: 1, PU: 0, Severity: 0},
		{Kind: Degrade, At: 1, PU: 0, Severity: 1.5},
		{Kind: Degrade, At: 1, PU: 0, Severity: math.NaN()},
		{Kind: Degrade, At: 1, PU: 0, Severity: 0.5, Ramp: math.Inf(1)},
		{Kind: BrownOut, At: 1, PU: 0, Duration: 0},
		{Kind: BrownOut, At: 1, PU: 0, Duration: math.Inf(1)},
		{Kind: Straggler, At: 1, PU: 0, Severity: 0.5, Duration: -1},
		{Kind: LinkSlow, At: 1, Machine: 2, Severity: 0.5},
		{Kind: LinkSlow, At: 1, Machine: 0, Link: 7, Severity: 0.5},
		{Kind: LinkSlow, At: 1, Machine: 0, Severity: 0.001},
		{Kind: LatencySpike, At: 1, Machine: 0, Severity: -1},
		{Kind: LatencySpike, At: 1, Machine: 0, Severity: 100},
		{Kind: Kind(99), At: 1},
	}
	for i, f := range bad {
		s := Schedule{Name: "bad", Specs: []FaultSpec{f}}
		if err := s.Validate(4, 2); err == nil {
			t.Errorf("spec %d (%+v) passed validation", i, f)
		}
	}
	ok := Schedule{Name: "ok", Specs: []FaultSpec{
		{Kind: DeviceDeath, At: 0, PU: 3},
		{Kind: Degrade, At: 2, PU: 1, Severity: 0.3, Ramp: 4},
		{Kind: BrownOut, At: 1, PU: 2, Duration: 3},
		{Kind: Straggler, At: 1, PU: 0, Severity: 0.5, Duration: 2},
		{Kind: LinkSlow, At: 0.5, Machine: 1, Link: NIC, Severity: 0.1, Duration: 0},
		{Kind: LatencySpike, At: 0.5, Machine: 1, Link: PCIe, Severity: 0.002, Duration: 1},
	}}
	if err := ok.Validate(4, 2); err != nil {
		t.Errorf("legal schedule rejected: %v", err)
	}
}

// TestFromBytesAlwaysValid: every byte string must decode to a schedule
// that passes Validate for the shape it was decoded against.
func TestFromBytesAlwaysValid(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(64)
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		nPU := 1 + rng.Intn(8)
		nM := 1 + rng.Intn(4)
		s := FromBytes(data, nPU, nM, 30)
		if err := s.Validate(nPU, nM); err != nil {
			t.Fatalf("trial %d: decoded schedule invalid: %v\nbytes: %v", trial, err, data)
		}
		if len(s.Specs) > maxDecodedSpecs {
			t.Fatalf("trial %d: %d specs exceed cap", trial, len(s.Specs))
		}
	}
	// Degenerate shapes must not panic.
	FromBytes([]byte{1, 2, 3, 4, 5, 6, 7}, 0, 0, 30)
	FromBytes(nil, 4, 2, 30)
	FromBytes([]byte{1, 2, 3, 4, 5, 6, 7}, 4, 2, math.NaN())
}

// TestRandSeedStable: the generator is a pure function of its RNG seed.
func TestRandSeedStable(t *testing.T) {
	a := Rand(stats.NewRNG(42), 6, 3, 20, 8)
	b := Rand(stats.NewRNG(42), 6, 3, 20, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%+v\n%+v", a.Specs, b.Specs)
	}
	if err := a.Validate(6, 3); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	c := Rand(stats.NewRNG(43), 6, 3, 20, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestApplyComposition drives a session whose workload is tiny and probes
// device and link state at fixed times: overlapping transients must
// multiply, unwind cleanly, and death must win over a recovery.
func TestApplyComposition(t *testing.T) {
	clu := tableI(2, 1)
	sess := mmSession(clu, 4096, true)
	gpu := clu.Machines[0].GPUs[0] // PU 1 — master-local, not probed by faults below
	target := clu.Machines[1].CPU  // PU 2
	_ = gpu

	sched := Schedule{Name: "composition", Specs: []FaultSpec{
		{Kind: Straggler, At: 100, PU: 2, Severity: 0.5, Duration: 40},
		{Kind: Degrade, At: 110, PU: 2, Severity: 0.4},
		{Kind: BrownOut, At: 120, PU: 2, Duration: 10},
		{Kind: LinkSlow, At: 100, Machine: 1, Link: NIC, Severity: 0.1, Duration: 50},
		{Kind: LatencySpike, At: 100, Machine: 1, Link: NIC, Severity: 0.25, Duration: 50},
	}}
	if err := sched.Apply(sess, clu); err != nil {
		t.Fatal(err)
	}

	baseNIC := clu.Machines[1].NIC
	type probe struct {
		at   float64
		fn   func() error
		name string
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	probes := []probe{
		{105, func() error {
			if got := target.SpeedFactor(); !approx(got, 0.5) {
				return fmt.Errorf("straggler alone: factor %v, want 0.5", got)
			}
			if got := clu.Machines[1].NIC.BandwidthBps; !approx(got, 0.1*baseNIC.BandwidthBps) {
				return fmt.Errorf("link bw %v, want %v", got, 0.1*baseNIC.BandwidthBps)
			}
			if got := clu.Machines[1].NIC.LatencySec; !approx(got, baseNIC.LatencySec+0.25) {
				return fmt.Errorf("link latency %v, want %v", got, baseNIC.LatencySec+0.25)
			}
			return nil
		}, "t=105"},
		{115, func() error {
			if got := target.SpeedFactor(); !approx(got, 0.5*0.4) {
				return fmt.Errorf("straggler×degrade: factor %v, want 0.2", got)
			}
			return nil
		}, "t=115"},
		{125, func() error {
			if !target.Failed() {
				return fmt.Errorf("brown-out did not fail the device")
			}
			return nil
		}, "t=125"},
		{135, func() error {
			// Brown-out over; straggler and degrade still active.
			if got := target.SpeedFactor(); !approx(got, 0.5*0.4) {
				return fmt.Errorf("after recovery: factor %v, want 0.2", got)
			}
			return nil
		}, "t=135"},
		{145, func() error {
			// Straggler expired: only the permanent degrade remains.
			if got := target.SpeedFactor(); !approx(got, 0.4) {
				return fmt.Errorf("after straggler: factor %v, want 0.4", got)
			}
			return nil
		}, "t=145"},
		{155, func() error {
			// Link faults expired: back to baseline, bit-exactly.
			if clu.Machines[1].NIC != baseNIC {
				return fmt.Errorf("link not restored: %+v vs %+v", clu.Machines[1].NIC, baseNIC)
			}
			return nil
		}, "t=155"},
	}
	var fails []string
	for _, p := range probes {
		p := p
		if err := sess.ScheduleAt(p.at, func() {
			if err := p.fn(); err != nil {
				fails = append(fails, fmt.Sprintf("%s: %v", p.name, err))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Run(sched4k()); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range fails {
		t.Error(f)
	}
}

func sched4k() starpu.Scheduler {
	return sched.NewGreedy(sched.Config{InitialBlockSize: 16})
}

// TestDeathWinsOverRecovery: a brown-out ending must not resurrect a unit
// that was separately killed.
func TestDeathWinsOverRecovery(t *testing.T) {
	clu := tableI(2, 1)
	sess := mmSession(clu, 4096, true)
	target := clu.Machines[1].GPUs[0]
	s := Schedule{Name: "death-vs-recovery", Specs: []FaultSpec{
		{Kind: BrownOut, At: 100, PU: 3, Duration: 20},
		{Kind: DeviceDeath, At: 110, PU: 3},
	}}
	if err := s.Apply(sess, clu); err != nil {
		t.Fatal(err)
	}
	var alive bool
	if err := sess.ScheduleAt(130, func() { alive = !target.Failed() }); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(sched4k()); err != nil {
		t.Fatal(err)
	}
	if alive {
		t.Fatal("brown-out recovery resurrected a dead device")
	}
}

// TestApplyDeterminism: the same (schedule, seed) yields a bit-identical
// record stream, with faults landing mid-run and the retry machinery
// engaged.
func TestApplyDeterminism(t *testing.T) {
	run := func() []starpu.TaskRecord {
		clu := tableI(2, 9)
		sess := mmSession(clu, 16384, true)
		s := Schedule{Name: "determinism", Specs: []FaultSpec{
			{Kind: BrownOut, At: 2, PU: 3, Duration: 3},
			{Kind: Degrade, At: 4, PU: 2, Severity: 0.5, Ramp: 2},
			{Kind: LinkSlow, At: 1, Machine: 1, Link: NIC, Severity: 0.2, Duration: 5},
		}}
		if err := s.Apply(sess, clu); err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run(sched.NewPLBHeC(sched.Config{InitialBlockSize: 8}))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Records
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chaos run not deterministic: %d vs %d records", len(a), len(b))
	}
}

// TestApplyRejectsInvalid: Apply surfaces validation errors before
// installing anything.
func TestApplyRejectsInvalid(t *testing.T) {
	clu := tableI(2, 1)
	sess := mmSession(clu, 4096, false)
	s := Schedule{Specs: []FaultSpec{{Kind: DeviceDeath, At: 1, PU: 99}}}
	if err := s.Apply(sess, clu); err == nil {
		t.Fatal("out-of-range PU accepted")
	}
}
