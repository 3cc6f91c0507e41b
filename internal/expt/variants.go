package expt

import (
	"fmt"

	"plbhec/internal/ipm"
	"plbhec/internal/metrics"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
	"plbhec/internal/stats"
)

// plbKnobs selects a PLB-HeC ablation variant.
type plbKnobs struct {
	bisection   bool // replace the interior-point method with τ water-filling
	noRebalance bool // disable threshold-triggered rebalancing
	oneStep     bool // hand each unit its whole share as one block
}

// runPLBVariant runs a modified PLB-HeC over the scenario's repetitions,
// fanning them over the runner's pool and reducing in seed order.
func runPLBVariant(r *Runner, sc Scenario, tweak func(*plbKnobs)) (*Result, error) {
	var knobs plbKnobs
	tweak(&knobs)
	if sc.Seeds <= 0 {
		sc.Seeds = DefaultSeeds
	}
	res := &Result{Scenario: sc, Sched: PLBHeC, SchedStats: map[string]float64{}}
	reps := make([]*starpu.Report, sc.Seeds)
	err := r.forEach(sc.Seeds, func(i int) error {
		app := MakeApp(sc.Kind, sc.Size)
		sess := starpu.NewSimSession(sc.Cluster(i), app, starpu.SimConfig{})
		sess.SetContext(r.Context())
		p := sched.NewPLBHeC(sched.Config{InitialBlockSize: InitialBlock(sc.Kind, sc.Size, sc.Machines)})
		if knobs.bisection {
			p.Solver = ipm.Options{DisableIPM: true}
		}
		if knobs.noRebalance {
			p.Threshold = 0
		}
		if knobs.oneStep {
			p.ExecutionSteps = 1
		}
		rep, err := sess.Run(p)
		if err != nil {
			return fmt.Errorf("expt: variant %+v seed %d: %w", knobs, i, err)
		}
		reps[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	var makespans, idles []float64
	for _, rep := range reps {
		res.LastReport = rep
		if res.PUNames == nil {
			res.PUNames = rep.PUNames
		}
		makespans = append(makespans, rep.Makespan)
		idles = append(idles, metrics.MeanIdle(rep))
		for k, v := range rep.SchedulerStats {
			res.SchedStats[k] += v / float64(sc.Seeds)
		}
	}
	res.Makespan = stats.Summarize(makespans)
	res.MeanIdle = stats.Summarize(idles)
	return res, nil
}
