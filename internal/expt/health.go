package expt

import (
	"fmt"

	"plbhec/internal/fault"
	"plbhec/internal/starpu"
	"plbhec/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "health",
		Paper: "§VI (fault tolerance)",
		Desc:  "Failure-detection sweep: phi-accrual vs deadline detectors under deaths, partitions, and heartbeat loss — detection latency against false suspicions and fenced completions",
		Run:   runHealth,
	})
}

// healthFaultGens returns the named fault-schedule generators the detection
// sweep crosses with each detector configuration. Death is the true-positive
// case (detection latency matters), partition and heartbeat loss are the
// false-positive stimuli (fencing and rejoin matter), flapping exercises
// repeated suspicion/rejoin cycles, and random chaos mixes every fault kind
// including Partition and HeartbeatLoss.
func healthFaultGens() []chaosScenario {
	return []chaosScenario{
		{"GPU death", func(_ int64, h float64) fault.Schedule {
			return fault.Schedule{Name: "gpu-death", Specs: []fault.FaultSpec{
				{Kind: fault.DeviceDeath, At: 0.4 * h, PU: 3},
			}}
		}},
		{"partition + heal", func(_ int64, h float64) fault.Schedule {
			return fault.Schedule{Name: "partition-heal", Specs: []fault.FaultSpec{
				{Kind: fault.Partition, At: 0.3 * h, PU: 3, Duration: 0.25 * h},
			}}
		}},
		{"heartbeat loss", func(_ int64, h float64) fault.Schedule {
			return fault.Schedule{Name: "hb-loss", Specs: []fault.FaultSpec{
				{Kind: fault.HeartbeatLoss, At: 0.3 * h, PU: 1, Duration: 0.25 * h},
			}}
		}},
		{"flapping partitions", func(_ int64, h float64) fault.Schedule {
			return fault.Schedule{Name: "flapping", Specs: []fault.FaultSpec{
				{Kind: fault.Partition, At: 0.2 * h, PU: 3, Duration: 0.08 * h},
				{Kind: fault.Partition, At: 0.45 * h, PU: 3, Duration: 0.08 * h},
				{Kind: fault.Partition, At: 0.7 * h, PU: 3, Duration: 0.08 * h},
			}}
		}},
		{"random chaos (4 faults)", func(seed int64, h float64) fault.Schedule {
			return fault.Rand(stats.NewRNG(9500+seed), 4, 2, h, 4)
		}},
	}
}

// runHealth sweeps the failure-detection design space: the detector ladder
// (phi-accrual at three thresholds, fixed deadlines at two multiples of the
// heartbeat) against the fault generators above. The trade the table exposes
// is the paper-level one — an aggressive detector reacts fast to real deaths
// (low detection latency) but fences more work under partitions and
// heartbeat loss (false suspicions), while a lax one wastes time shipping
// blocks to units it should have given up on.
func runHealth(o Options) error {
	size := o.size(MM, 32768)
	r := o.runner()

	// Pilot run to scale fault times and the heartbeat period to a typical
	// makespan: ~60 heartbeats per run keeps the phi window meaningful at
	// every -quick input scale.
	sc := Scenario{Kind: MM, Size: size, Machines: 2, Seeds: o.seeds(), BaseSeed: 9500}
	pilotRep, err := pilot(o, r, "health", sc)
	if pilotRep == nil {
		return err
	}
	horizon := pilotRep.Makespan
	hb := horizon / 60

	phi := func(th float64) *starpu.HealthPolicy {
		return &starpu.HealthPolicy{HeartbeatSeconds: hb, Detector: "phi", PhiThreshold: th}
	}
	deadline := func(mult float64) *starpu.HealthPolicy {
		return &starpu.HealthPolicy{HeartbeatSeconds: hb, Detector: "deadline", TimeoutSeconds: mult * hb}
	}
	dets := []struct {
		name string
		pol  *starpu.HealthPolicy
	}{
		{"phi θ=4", phi(4)},
		{"phi θ=8", phi(8)},
		{"phi θ=12", phi(12)},
		{"deadline 3·hb", deadline(3)},
		{"deadline 10·hb", deadline(10)},
	}

	gens := healthFaultGens()
	var cells []Cell
	for _, g := range gens {
		sc.Prepare = faultsAt(g.gen, horizon)
		for _, d := range dets {
			sc.Sim = starpu.SimConfig{Retry: true, Health: d.pol}
			cells = append(cells, Cell{Sc: sc, Name: PLBHeC})
		}
	}
	results, err := r.RunCells(cells)
	if err != nil {
		return err
	}

	t := NewTable(fmt.Sprintf("failure detection — MM %d, 2 machines, heartbeat %.3fs (fault horizon %.2fs, PLB-HeC + default retry)", size, hb, horizon),
		"Scenario", "Detector", "Time s", "Survived", "Suspicions", "False", "Fenced", "Rejoins", "Det lat s", "Requeues")
	for i, res := range results {
		acc := res.Resilience
		// Mean detection lag over suspicions of units that were really down.
		meanDet := 0.0
		if tp := acc.Suspicions - acc.FalseSuspects; tp > 0 {
			meanDet = acc.DetectionSeconds / float64(tp)
		}
		t.AddRow(gens[i/len(dets)].name, dets[i%len(dets)].name,
			fmt.Sprintf("%.3f", res.Makespan.Mean),
			fmt.Sprintf("%d/%d", res.Makespan.N, res.Scenario.Seeds),
			fmt.Sprintf("%d", acc.Suspicions), fmt.Sprintf("%d", acc.FalseSuspects),
			fmt.Sprintf("%d", acc.FencedCompletions), fmt.Sprintf("%d", acc.Rejoins),
			fmt.Sprintf("%.4f", meanDet),
			fmt.Sprintf("%d", acc.Requeues))
	}
	return t.Emit(o, "health")
}
