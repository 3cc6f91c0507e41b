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
		ID:    "chaos",
		Paper: "§VI (fault tolerance)",
		Desc:  "Chaos sweep: declarative fault schedules × schedulers with the runtime retry machinery engaged",
		Run:   runChaos,
	})
}

// chaosScenario is one row group of the chaos sweep: a named generator that
// maps a repetition seed to a fault schedule. Schedules are pure functions
// of (scenario, seed), so the whole sweep is reproducible run-to-run and
// across -jobs settings.
type chaosScenario struct {
	name string
	gen  func(seed int64, horizon float64) fault.Schedule
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{"stationary", func(int64, float64) fault.Schedule { return fault.Schedule{Name: "none"} }},
		{"GPU death", func(_ int64, h float64) fault.Schedule {
			return fault.Schedule{Name: "gpu-death", Specs: []fault.FaultSpec{
				{Kind: fault.DeviceDeath, At: 0.4 * h, PU: 3},
			}}
		}},
		{"brown-out + NIC slowdown", func(_ int64, h float64) fault.Schedule {
			return fault.Schedule{Name: "brownout-nic", Specs: []fault.FaultSpec{
				{Kind: fault.BrownOut, At: 0.3 * h, PU: 3, Duration: 0.3 * h},
				{Kind: fault.LinkSlow, At: 0.3 * h, Machine: 1, Link: fault.NIC, Severity: 0.25, Duration: 0.4 * h},
			}}
		}},
		{"random chaos (4 faults)", func(seed int64, h float64) fault.Schedule {
			return fault.Rand(stats.NewRNG(9200+seed), 4, 2, h, 4)
		}},
		{"straggler (GPU ×0.15)", func(_ int64, h float64) fault.Schedule {
			return fault.Schedule{Name: "straggler", Specs: []fault.FaultSpec{
				{Kind: fault.Straggler, At: 0.2 * h, PU: 3, Severity: 0.15, Duration: 0.6 * h},
			}}
		}},
		{"double straggler", func(_ int64, h float64) fault.Schedule {
			return fault.Schedule{Name: "straggler-2", Specs: []fault.FaultSpec{
				{Kind: fault.Straggler, At: 0.15 * h, PU: 3, Severity: 0.2, Duration: 0.5 * h},
				{Kind: fault.Straggler, At: 0.4 * h, PU: 0, Severity: 0.3, Duration: 0.4 * h},
			}}
		}},
	}
}

// runChaos evaluates every scheduler under seeded fault schedules with the
// default retry policy: in-flight blocks on failed units are requeued
// instead of wedging the run. Reported per cell: makespan over the
// surviving repetitions, how many repetitions survived, and the summed
// failover/requeue counts from the runtime's resilience accounting.
func runChaos(o Options) error {
	size := o.size(MM, 32768)
	r := o.runner()

	// Pilot run to scale every fault time to a typical makespan.
	pilotSc := Scenario{Kind: MM, Size: size, Machines: 2, Seeds: 1, BaseSeed: 9100}
	pilot, err := r.RunCell(pilotSc, PLBHeC)
	if err != nil {
		return err
	}
	horizon := pilot.Makespan.Mean

	scenarios := chaosScenarios()
	type job struct {
		si   int
		name SchedName
	}
	var jobs []job
	for si := range scenarios {
		for _, name := range PaperSchedulers() {
			jobs = append(jobs, job{si, name})
		}
	}
	type cell struct {
		sum                 stats.Summary // default retry policy, no speculation
		specSum             stats.Summary // retry + default speculation policy
		survived, seeds     int
		failovers, requeues int64
		specs, wins, wasted int64 // speculation accounting of the spec run
	}
	cells := make([]cell, len(jobs))
	seeds := o.seeds()
	err = r.forEach(len(jobs), func(ji int) error {
		j := jobs[ji]
		times := make([]float64, 0, seeds)
		specTimes := make([]float64, 0, seeds)
		c := &cells[ji]
		c.seeds = seeds
		for i := 0; i < seeds; i++ {
			// Each seed runs twice — without and with the speculation
			// policy — under the identical fault schedule, so the Spec
			// column isolates what watchdog-driven backup copies buy.
			rep, err := runChaosRep(r, size, scenarios[j.si], j.name, i, horizon, nil)
			if err != nil {
				return err
			}
			specRep, specErr := runChaosRep(r, size, scenarios[j.si], j.name, i, horizon,
				starpu.DefaultSpeculationPolicy())
			if specErr != nil {
				return specErr
			}
			if rep != nil {
				times = append(times, rep.Makespan)
				for _, res := range rep.Resilience {
					c.failovers += res.Failovers
					c.requeues += res.Requeues
				}
			}
			if specRep != nil {
				specTimes = append(specTimes, specRep.Makespan)
				for _, res := range specRep.Resilience {
					c.specs += res.Speculations
					c.wins += res.SpecWins
					c.wasted += res.SpecWasted
				}
			}
		}
		c.survived = len(times)
		c.sum = stats.Summarize(times)
		c.specSum = stats.Summarize(specTimes)
		return nil
	})
	if err != nil {
		return err
	}

	t := NewTable(fmt.Sprintf("chaos sweep — MM %d, 2 machines (fault horizon %.2fs, default retry policy; Spec: + default speculation policy)", size, horizon),
		"Scenario", "Scheduler", "Time s", "Std", "Spec s", "Survived", "Failovers", "Requeues", "Specs", "Wins", "Wasted")
	for ji, j := range jobs {
		c := cells[ji]
		t.AddRow(scenarios[j.si].name, string(j.name),
			fmt.Sprintf("%.3f", c.sum.Mean), fmt.Sprintf("%.3f", c.sum.Std),
			fmt.Sprintf("%.3f", c.specSum.Mean),
			fmt.Sprintf("%d/%d", c.survived, c.seeds),
			fmt.Sprintf("%d", c.failovers), fmt.Sprintf("%d", c.requeues),
			fmt.Sprintf("%d", c.specs), fmt.Sprintf("%d", c.wins), fmt.Sprintf("%d", c.wasted))
	}
	return t.Emit(o, "chaos")
}

// runChaosRep executes one chaos repetition: scheduler name under the
// scenario's fault schedule for the given seed, with the default retry
// policy and, when spec is non-nil, the speculation policy on top. A nil
// report with nil error means the schedule exhausted every unit — a
// tolerated outcome, the repetition just doesn't contribute a sample.
func runChaosRep(r *Runner, size int64, csc chaosScenario, name SchedName, seed int, horizon float64, spec *starpu.SpeculationPolicy) (*starpu.Report, error) {
	sc := Scenario{Kind: MM, Size: size, Machines: 2, Seeds: 1, BaseSeed: 9100 + int64(seed)}
	app := MakeApp(sc.Kind, sc.Size)
	clu := sc.Cluster(0)
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{
		Retry: true,
		Spec:  spec,
	})
	sess.SetContext(r.Context())
	schedule := csc.gen(int64(seed), horizon)
	if err := schedule.Apply(sess, clu); err != nil {
		return nil, fmt.Errorf("%s under %q: %w", name, csc.name, err)
	}
	s, err := NewScheduler(name, InitialBlock(sc.Kind, sc.Size, sc.Machines))
	if err != nil {
		return nil, err
	}
	rep, err := sess.Run(s)
	if err != nil {
		// A schedule may legitimately exhaust every unit; anything else is
		// a real failure of the harness.
		if errors.Is(err, starpu.ErrFailedDevice) {
			return nil, nil
		}
		return nil, fmt.Errorf("%s under %q: %w", name, csc.name, err)
	}
	return rep, nil
}
