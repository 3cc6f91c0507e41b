package expt

import (
	"fmt"
	"math"

	"plbhec/internal/ipm"
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

	t := NewTable(fmt.Sprintf("PLB-HeC ablations — MM %d, 4 machines", size),
		"Variant", "Time s", "Std", "vs full")
	pool := o.runner()
	full, err := pool.RunCell(base, PLBHeC)
	if err != nil {
		return err
	}
	add := func(label string, r *Result) {
		t.AddRow(label, fmt.Sprintf("%.3f", r.Makespan.Mean),
			fmt.Sprintf("%.3f", r.Makespan.Std),
			fmt.Sprintf("%+.1f%%", 100*(r.Makespan.Mean/full.Makespan.Mean-1)))
	}
	add("full PLB-HeC", full)

	noOv := base
	noOv.NoOverheads = true
	if r, err := pool.RunCell(noOv, PLBHeC); err == nil {
		add("no charged fit/solve overheads", r)
	} else {
		return err
	}
	if r, err := runPLBVariant(pool, base, func(p *plbKnobs) { p.noRebalance = true }); err == nil {
		add("rebalancing disabled", r)
	} else {
		return err
	}
	if r, err := runPLBVariant(pool, base, func(p *plbKnobs) { p.oneStep = true }); err == nil {
		add("single execution step (one block per unit)", r)
	} else {
		return err
	}
	return t.Emit(o, "ablation")
}
