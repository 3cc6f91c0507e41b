package expt

import (
	"errors"
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

// HealthScenario is one failure-detection cell: a heartbeat/detector policy
// run against a seeded fault-schedule generator on a Table I cluster, with
// the retry machinery engaged. Like chaosScenario, the schedule is a pure
// function of (scenario, seed), and the cell is a pure function of the
// scenario — which is what lets the root golden test pin a hash over it.
type HealthScenario struct {
	Name     string
	Machines int
	Size     int64 // MatMul N
	Seeds    int   // repetitions (0 = DefaultSeeds)
	BaseSeed int64 // repetition i seeds cluster noise with BaseSeed+i
	// Horizon scales the generator's fault times; the sweep derives it from
	// a pilot run, golden tests hardcode it.
	Horizon float64
	// Policy is the health policy under test (must be non-nil: a nil policy
	// has no detector and the cell would measure nothing).
	Policy *starpu.HealthPolicy
	// Gen maps a repetition seed to that repetition's fault schedule.
	Gen func(seed int64, horizon float64) fault.Schedule
}

// Label names the scenario for error messages, e.g. "health-partition-m2".
func (sc HealthScenario) Label() string {
	return fmt.Sprintf("health-%s-m%d", sc.Name, sc.Machines)
}

// HealthResult aggregates the repetitions of one failure-detection cell:
// makespan over surviving repetitions plus the summed health accounting from
// Report.Resilience.
type HealthResult struct {
	Scenario HealthScenario

	Makespan        stats.Summary
	Survived, Seeds int

	// Detector accounting, summed over units and surviving repetitions.
	Suspicions, FalseSuspects int64
	Rejoins, Fenced           int64
	Failovers, Requeues       int64
	// DetectionSeconds sums true-positive detection lag; MeanDetection is
	// its per-true-suspicion mean (0 when there were none).
	DetectionSeconds float64
	MeanDetection    float64

	// LastReport is the final surviving repetition's full report.
	LastReport *starpu.Report
}

// RunHealthCell executes one failure-detection cell over all repetitions,
// fanning them out over the runner's pool and aggregating in seed order. A
// repetition whose schedule exhausts every unit contributes no sample but is
// not an error, matching the chaos sweep's survival semantics.
func (r *Runner) RunHealthCell(sc HealthScenario) (*HealthResult, error) {
	if sc.Seeds <= 0 {
		sc.Seeds = DefaultSeeds
	}
	reports := make([]*starpu.Report, sc.Seeds)
	err := r.forEach(sc.Seeds, func(i int) error {
		rep, err := RunHealthRep(r, sc, i)
		reports[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}

	res := &HealthResult{Scenario: sc, Seeds: sc.Seeds}
	var times []float64
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		res.LastReport = rep
		times = append(times, rep.Makespan)
		for _, u := range rep.Resilience {
			res.Suspicions += u.Suspicions
			res.FalseSuspects += u.FalseSuspects
			res.Rejoins += u.Rejoins
			res.Fenced += u.FencedCompletions
			res.Failovers += u.Failovers
			res.Requeues += u.Requeues
			res.DetectionSeconds += u.DetectionSeconds
		}
	}
	res.Survived = len(times)
	res.Makespan = stats.Summarize(times)
	if tp := res.Suspicions - res.FalseSuspects; tp > 0 {
		res.MeanDetection = res.DetectionSeconds / float64(tp)
	}
	return res, nil
}

// RunHealthRep executes one repetition of a failure-detection cell: PLB-HeC
// under the scenario's fault schedule with the health policy attached and the
// default retry policy requeueing suspects' blocks. A nil report with nil
// error means the schedule exhausted every unit — a tolerated outcome.
func RunHealthRep(r *Runner, sc HealthScenario, seed int) (*starpu.Report, error) {
	base := Scenario{Kind: MM, Size: sc.Size, Machines: sc.Machines, Seeds: 1, BaseSeed: sc.BaseSeed + int64(seed)}
	app := MakeApp(base.Kind, base.Size)
	clu := base.Cluster(0)
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{
		Retry:  true,
		Health: sc.Policy,
	})
	sess.SetContext(r.Context())
	schedule := sc.Gen(int64(seed), sc.Horizon)
	if err := schedule.Apply(sess, clu); err != nil {
		return nil, fmt.Errorf("%s: %w", sc.Label(), err)
	}
	s, err := NewScheduler(PLBHeC, InitialBlock(base.Kind, base.Size, base.Machines))
	if err != nil {
		return nil, err
	}
	rep, err := sess.Run(s)
	if err != nil {
		if errors.Is(err, starpu.ErrFailedDevice) {
			return nil, nil
		}
		return nil, fmt.Errorf("%s seed %d: %w", sc.Label(), seed, err)
	}
	return rep, nil
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
	pilot, err := r.RunCell(Scenario{Kind: MM, Size: size, Machines: 2, Seeds: 1, BaseSeed: 9500}, PLBHeC)
	if err != nil {
		return err
	}
	horizon := pilot.Makespan.Mean
	hb := horizon / 60

	type detCfg struct {
		name string
		pol  *starpu.HealthPolicy
	}
	phi := func(th float64) *starpu.HealthPolicy {
		return &starpu.HealthPolicy{HeartbeatSeconds: hb, Detector: "phi", PhiThreshold: th}
	}
	deadline := func(mult float64) *starpu.HealthPolicy {
		return &starpu.HealthPolicy{HeartbeatSeconds: hb, Detector: "deadline", TimeoutSeconds: mult * hb}
	}
	dets := []detCfg{
		{"phi θ=4", phi(4)},
		{"phi θ=8", phi(8)},
		{"phi θ=12", phi(12)},
		{"deadline 3·hb", deadline(3)},
		{"deadline 10·hb", deadline(10)},
	}

	gens := healthFaultGens()
	type job struct {
		gi, di int
	}
	var jobs []job
	for gi := range gens {
		for di := range dets {
			jobs = append(jobs, job{gi, di})
		}
	}
	results := make([]*HealthResult, len(jobs))
	err = r.forEach(len(jobs), func(ji int) error {
		j := jobs[ji]
		res, err := r.RunHealthCell(HealthScenario{
			Name:     gens[j.gi].name,
			Machines: 2,
			Size:     size,
			Seeds:    o.seeds(),
			BaseSeed: 9500,
			Horizon:  horizon,
			Policy:   dets[j.di].pol,
			Gen:      gens[j.gi].gen,
		})
		if err != nil {
			return err
		}
		results[ji] = res
		return nil
	})
	if err != nil {
		return err
	}

	t := NewTable(fmt.Sprintf("failure detection — MM %d, 2 machines, heartbeat %.3fs (fault horizon %.2fs, PLB-HeC + default retry)", size, hb, horizon),
		"Scenario", "Detector", "Time s", "Survived", "Suspicions", "False", "Fenced", "Rejoins", "Det lat s", "Requeues")
	for ji, j := range jobs {
		res := results[ji]
		t.AddRow(gens[j.gi].name, dets[j.di].name,
			fmt.Sprintf("%.3f", res.Makespan.Mean),
			fmt.Sprintf("%d/%d", res.Survived, res.Seeds),
			fmt.Sprintf("%d", res.Suspicions), fmt.Sprintf("%d", res.FalseSuspects),
			fmt.Sprintf("%d", res.Fenced), fmt.Sprintf("%d", res.Rejoins),
			fmt.Sprintf("%.4f", res.MeanDetection),
			fmt.Sprintf("%d", res.Requeues))
	}
	return t.Emit(o, "health")
}
