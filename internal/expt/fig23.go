package expt

import (
	"fmt"

	"plbhec/internal/metrics"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Paper: "Fig. 2",
		Desc:  "Phase-annotated trace of one PLB-HeC run (per-unit probes, block-size selection, execution)",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Paper: "Fig. 3",
		Desc:  "Gantt chart of threshold-triggered rebalancing after a mid-run device slowdown",
		Run:   runFig3,
	})
}

// runFig2 reproduces the structure of the paper's Fig. 2 schematic as a
// phase-annotated execution trace of a real run.
func runFig2(o Options) error {
	size := o.size(MM, 16384)
	sc := Scenario{Kind: MM, Size: size, Machines: 4, Seeds: 1, BaseSeed: 7}
	res, err := o.runner().RunCell(sc, PLBHeC)
	if err != nil {
		return err
	}
	rep := res.LastReport
	if rep == nil {
		fmt.Fprintf(o.Out, "fig2: run %s did not complete\n", sc.Label())
		return nil
	}
	fmt.Fprintf(o.Out, "\n== fig2 — PLB-HeC phases on MM-%d, 4 machines ==\n", size)

	// The first recorded distribution marks the end of the modeling phase.
	modelEnd := rep.Makespan
	if len(rep.Distributions) > 0 {
		modelEnd = rep.Distributions[0].Time
	}
	fmt.Fprintf(o.Out, "performance modeling phase: 0.000s – %.3fs\n", modelEnd)
	// Each unit probes on its own: list the probes it was sent before the
	// first solve and when its last one ended.
	for pu, name := range rep.PUNames {
		fmt.Fprintf(o.Out, "  %-22s probes", name)
		var n int
		var end float64
		for _, r := range rep.Records {
			if r.PU == pu && r.SubmitTime < modelEnd {
				n++
				end = r.ExecEnd
				fmt.Fprintf(o.Out, " %d", r.Units)
			}
		}
		fmt.Fprintf(o.Out, " (%d, last ends at %.3fs)", n, end)
		if len(rep.Distributions) > 0 && rep.Distributions[0].X[pu] == 0 {
			fmt.Fprint(o.Out, ", left out of the first solve")
		}
		fmt.Fprintln(o.Out)
	}
	for i, d := range rep.Distributions {
		fmt.Fprintf(o.Out, "block-size selection (%s) at %.3fs: shares", d.Label, d.Time)
		for _, x := range d.X {
			fmt.Fprintf(o.Out, " %.3f", x)
		}
		fmt.Fprintln(o.Out)
		if i == 0 {
			fmt.Fprintf(o.Out, "execution phase: %.3fs – %.3fs\n", d.Time, rep.Makespan)
		}
	}
	fmt.Fprintf(o.Out, "total makespan: %.3fs, tasks: %d, scheduler stats: %v\n",
		rep.Makespan, len(rep.Records), rep.SchedulerStats)
	return nil
}

// runFig3 reproduces Fig. 3: a run in which one processing unit slows down
// mid-execution (cloud-QoS style), the finish-time threshold fires, and the
// scheduler synchronizes and redistributes. Rendered as an ASCII Gantt.
func runFig3(o Options) error {
	size := o.size(MM, 32768)
	// Degrade the master GPU to 35% speed one third into the expected run.
	const slowAt = 8.0
	sc := Scenario{Kind: MM, Size: size, Machines: 2, Seeds: 1, BaseSeed: 11,
		Prepare: speedAt(slowAt, 0, 0.35)}
	res, err := o.runner().RunCell(sc, PLBHeC)
	if err != nil {
		return err
	}
	rep := res.LastReport
	if rep == nil {
		fmt.Fprintf(o.Out, "fig3: run %s did not complete\n", sc.Label())
		return nil
	}
	fmt.Fprintf(o.Out, "\n== fig3 — Gantt: %s on 2 machines; %s slows to 35%% at t=%.1fs ==\n",
		rep.AppName, sc.Cluster(0).Machines[0].GPUs[0].Name, slowAt)
	fmt.Fprintf(o.Out, "(█ kernel execution, ▒ data transfer, · idle)\n")
	fmt.Fprint(o.Out, metrics.RenderGantt(rep, 100))
	fmt.Fprintf(o.Out, "rebalances triggered: %.0f, makespan %.3fs\n",
		rep.SchedulerStats["rebalances"], rep.Makespan)
	if rep.SchedulerStats["rebalances"] < 1 {
		fmt.Fprintf(o.Out, "WARNING: expected at least one rebalance after the slowdown\n")
	}
	return nil
}
