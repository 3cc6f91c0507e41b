package expt

import (
	"fmt"
	"math"

	"plbhec/internal/ipm"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
	"plbhec/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "solver",
		Paper: "§V.a (solver overhead)",
		Desc:  "Block-size solve wall time per system size (paper: 170 ms ± 32.3 ms with IPOPT, 8 PUs, MM 65536)",
		Run:   runSolver,
	})
	register(Experiment{
		ID:    "ablation",
		Paper: "DESIGN.md ablations",
		Desc:  "PLB-HeC design-choice ablations: charged overheads, rebalancing, execution steps",
		Run:   runAblation,
	})
}

// solverCurve mimics a fitted per-unit model: t(x) = a + b·x + c·ln(x+1).
type solverCurve struct{ a, b, c float64 }

func (s solverCurve) Eval(x float64) float64 {
	return s.a + s.b*x + s.c*math.Log(x+1)
}

// runSolver measures our water-filling solver on realistic fitted systems
// of 2–16 processing units, the analogue of the paper's reported IPOPT
// solve time (170 ms mean, 32.3 ms std).
func runSolver(o Options) error {
	t := NewTable("Block-size solve wall time (ours, vs paper's IPOPT 170 ms ± 32.3 ms)",
		"Units n", "Mean ms", "Std ms", "Max ms", "τ steps")
	reps := 50
	if o.Quick {
		reps = 10
	}
	rng := stats.NewRNG(99)
	for _, n := range []int{2, 4, 8, 16} {
		var times, steps []float64
		for r := 0; r < reps; r++ {
			curves := make([]ipm.Curve, n)
			for g := 0; g < n; g++ {
				// Rates spanning ~300x like the Table I cluster.
				b := math.Exp(rng.Float64()*5.7) * 1e-4
				curves[g] = solverCurve{a: rng.Float64() * 0.01, b: b, c: rng.Float64() * b * 50}
			}
			res, err := ipm.Solve(ipm.Problem{Curves: curves, Total: 65536}, ipm.Options{})
			if err != nil {
				return err
			}
			times = append(times, res.WallTime.Seconds()*1000)
			steps = append(steps, float64(res.Iterations))
		}
		ts := stats.Summarize(times)
		t.AddRow(n, fmt.Sprintf("%.3f", ts.Mean), fmt.Sprintf("%.3f", ts.Std),
			fmt.Sprintf("%.3f", ts.Max), fmt.Sprintf("%.1f", stats.Mean(steps)))
	}
	if err := t.Emit(o, "solver"); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "Note: simulated runs charge the paper's measured 170 ms per solve\n"+
		"(starpu.DefaultOverheads) so schedule quality is compared under the paper's overhead.\n")
	return nil
}

// runAblation quantifies PLB-HeC's design choices on the headline scenario:
// charged overheads on/off, rebalancing on/off, and one execution step per
// unit.
func runAblation(o Options) error {
	size := o.size(MM, 65536)
	base := Scenario{Kind: MM, Size: size, Machines: 4, Seeds: o.seeds(), BaseSeed: 5000}
	noOv := base
	noOv.Sim.Overheads = starpu.NoOverheads()
	variants := []struct {
		label string
		cell  Cell
	}{
		{"full PLB-HeC", Cell{Sc: base, Name: PLBHeC}},
		{"no charged fit/solve overheads", Cell{Sc: noOv, Name: PLBHeC}},
		{"rebalancing disabled", plbTuned(base, func(p *sched.PLBHeC) { p.Threshold = 0 })},
		{"single execution step (one block per unit)", plbTuned(base, func(p *sched.PLBHeC) { p.ExecutionSteps = 1 })},
	}
	cells := make([]Cell, len(variants))
	for i, v := range variants {
		cells[i] = v.cell
	}
	results, err := o.runner().RunCells(cells)
	if err != nil {
		return err
	}

	t := NewTable(fmt.Sprintf("PLB-HeC ablations — MM %d, 4 machines", size),
		"Variant", "Time s", "Std", "vs full")
	full := results[0]
	for i, res := range results {
		t.AddRow(variants[i].label, fmt.Sprintf("%.3f", res.Makespan.Mean),
			fmt.Sprintf("%.3f", res.Makespan.Std),
			fmt.Sprintf("%+.1f%%", 100*(res.Makespan.Mean/full.Makespan.Mean-1)))
	}
	return t.Emit(o, "ablation")
}
