package expt

import (
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
	sc := Scenario{Kind: MM, Size: size, Machines: 2, Seeds: o.seeds(), BaseSeed: 9100}
	pilotRep, err := pilot(o, r, "chaos", sc)
	if pilotRep == nil {
		return err
	}
	horizon := pilotRep.Makespan

	// Each (scenario, scheduler) pair runs twice — without and with the
	// speculation policy — under the identical fault schedules, so the Spec
	// column isolates what watchdog-driven backup copies buy.
	scenarios := chaosScenarios()
	var cells []Cell
	for _, csc := range scenarios {
		plain := sc
		plain.Sim = starpu.SimConfig{Retry: true}
		plain.Prepare = faultsAt(csc.gen, horizon)
		spec := plain
		spec.Sim.Spec = starpu.DefaultSpeculationPolicy()
		for _, name := range PaperSchedulers() {
			cells = append(cells, Cell{Sc: plain, Name: name}, Cell{Sc: spec, Name: name})
		}
	}
	results, err := r.RunCells(cells)
	if err != nil {
		return err
	}

	t := NewTable(fmt.Sprintf("chaos sweep — MM %d, 2 machines (fault horizon %.2fs, default retry policy; Spec: + default speculation policy)", size, horizon),
		"Scenario", "Scheduler", "Time s", "Std", "Spec s", "Survived", "Failovers", "Requeues", "Specs", "Wins", "Wasted")
	per := 2 * len(PaperSchedulers())
	for i := 0; i < len(results); i += 2 {
		res, spec := results[i], results[i+1]
		t.AddRow(scenarios[i/per].name, string(res.Sched),
			fmt.Sprintf("%.3f", res.Makespan.Mean), fmt.Sprintf("%.3f", res.Makespan.Std),
			fmt.Sprintf("%.3f", spec.Makespan.Mean),
			fmt.Sprintf("%d/%d", res.Makespan.N, res.Scenario.Seeds),
			fmt.Sprintf("%d", res.Resilience.Failovers), fmt.Sprintf("%d", res.Resilience.Requeues),
			fmt.Sprintf("%d", spec.Resilience.Speculations), fmt.Sprintf("%d", spec.Resilience.SpecWins),
			fmt.Sprintf("%d", spec.Resilience.SpecWasted))
	}
	return t.Emit(o, "chaos")
}
