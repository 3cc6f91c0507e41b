package expt

import (
	"fmt"

	"plbhec/internal/cluster"
	"plbhec/internal/metrics"
	"plbhec/internal/starpu"
)

func init() {
	register(Experiment{
		ID:    "scale",
		Paper: "beyond §V (scale)",
		Desc:  "The four paper schedulers on generated 1k- and 10k-PU clusters: makespan, first solve, busy fraction per phase",
		Run:   runScale,
	})
}

// scaleTier is one cluster size of the scale experiment: nodes generated
// machines of 1 CPU + 4 GPUs each, running MatMul over units work units.
type scaleTier struct {
	nodes int
	units int64
}

// scaleTiers are 1,000 and 10,000 PUs, or only a smaller 1,000-PU run in
// quick mode.
func scaleTiers(quick bool) []scaleTier {
	if quick {
		return []scaleTier{{200, 1 << 20}}
	}
	return []scaleTier{{200, 4 << 20}, {2000, 16 << 20}}
}

const (
	// scaleSeeds is the number of generated clusters per tier (seeds 1…3).
	scaleSeeds = 3
	// scaleBlock is every scheduler's initial block size on the generated
	// clusters.
	scaleBlock = 16
)

// scaleScenario is one generated cluster of a tier: a single repetition,
// so each cell's report is that cluster's run.
func scaleScenario(tier scaleTier, seed int64) Scenario {
	return Scenario{Kind: MM, Size: tier.units, Machines: tier.nodes, Seeds: 1, BaseSeed: seed,
		NewCluster: func(seed int64) *cluster.Cluster {
			return cluster.Synthetic(tier.nodes, 4, cluster.Config{Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma})
		}}
}

// scaleCells are the four paper schedulers on one generated cluster, each
// with the initial block scaleBlock.
func scaleCells(tier scaleTier, seed int64) []Cell {
	sc := scaleScenario(tier, seed)
	var cells []Cell
	for _, name := range PaperSchedulers() {
		cells = append(cells, Cell{Sc: sc, Name: name, Sched: func() starpu.Scheduler {
			s, _ := NewScheduler(name, scaleBlock) // every paper scheduler name is known
			return s
		}})
	}
	return cells
}

// scaleRun is what the scale experiment reads from one run: its makespan,
// the time of its first recorded split (PLB-HeC's first solve, the end of
// HDSS's first phase, Acosta's first iteration; 0 for greedy, which never
// splits) and the units' busy fraction before and after it.
type scaleRun struct {
	makespan, split    float64
	busyPre, busyAfter float64
}

func readScaleRun(rep *starpu.Report) scaleRun {
	r := scaleRun{makespan: rep.Makespan}
	if len(rep.Distributions) > 0 {
		r.split = rep.Distributions[0].Time
		r.busyPre = metrics.BusyFraction(rep, 0, r.split)
	}
	r.busyAfter = metrics.BusyFraction(rep, r.split, rep.Makespan)
	return r
}

// runScale runs the paper's schedulers on generated clusters far beyond
// Table I, where a synchronized modeling phase would wait on the slowest
// of thousands of CPUs. One cluster's four runs go through the pool at a
// time, so at most four reports are held at once.
func runScale(o Options) error {
	t := NewTable("scale — MatMul on generated clusters (1 CPU + 4 GPUs per node)",
		"PUs", "Units", "Seed", "Scheduler", "Time s", "vs HDSS", "First split %", "Busy before", "Busy after")
	r := o.runner()
	for _, tier := range scaleTiers(o.Quick) {
		for seed := int64(1); seed <= scaleSeeds; seed++ {
			results, err := r.RunCells(scaleCells(tier, seed))
			if err != nil {
				return err
			}
			var hdss float64
			if res := find(results, HDSS); res.LastReport != nil {
				hdss = res.LastReport.Makespan
			}
			for _, res := range results {
				if res.LastReport == nil {
					t.AddRow(tier.nodes*5, tier.units, seed, string(res.Sched), "-", "-", "-", "-", "-")
					continue
				}
				run := readScaleRun(res.LastReport)
				ratio, split, pre := "-", "-", "-"
				if hdss > 0 {
					ratio = fmt.Sprintf("%.3f", run.makespan/hdss)
				}
				if run.split > 0 {
					split = fmt.Sprintf("%.1f", 100*run.split/run.makespan)
					pre = fmt.Sprintf("%.3f", run.busyPre)
				}
				t.AddRow(tier.nodes*5, tier.units, seed, string(res.Sched),
					fmt.Sprintf("%.0f", run.makespan), ratio, split, pre,
					fmt.Sprintf("%.3f", run.busyAfter))
			}
		}
	}
	return t.Emit(o, "scale")
}
