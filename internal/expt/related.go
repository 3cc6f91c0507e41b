package expt

import (
	"fmt"

	"plbhec/internal/sched"
	"plbhec/internal/starpu"
)

func init() {
	register(Experiment{
		ID:    "related",
		Paper: "§II (related work)",
		Desc:  "Extended comparison: the paper's four schedulers plus static profiling [17] and weighted factoring [20]",
		Run:   runRelated,
	})
}

// runRelated runs the full scheduler spectrum — including the §II
// related-work schemes the paper discusses but does not benchmark — on the
// headline MM scenario. Static profiling gets genuine profiles from a
// prior PLB-HeC run on the same cluster, per [17]'s design.
func runRelated(o Options) error {
	size := o.size(MM, 65536)
	blk := InitialBlock(MM, size, 4)

	r := o.runner()
	// Profiling run for [17]: one PLB-HeC execution on the target cluster.
	prof, err := pilot(o, r, "related", Scenario{Kind: MM, Size: size, Machines: 4, BaseSeed: 9000})
	if prof == nil {
		return err
	}
	rates := sched.RatesFromReport(prof)

	sc := Scenario{Kind: MM, Size: size, Machines: 4, Seeds: o.seeds(), BaseSeed: 9100}
	entries := []struct {
		origin string
		cell   Cell
	}{
		{"this paper", Cell{Sc: sc, Name: PLBHeC}},
		{"[19] Belviranli et al.", Cell{Sc: sc, Name: HDSS}},
		{"[18] Acosta et al.", Cell{Sc: sc, Name: Acosta}},
		{"StarPU default", Cell{Sc: sc, Name: Greedy}},
		{"[17] de Camargo", Cell{Sc: sc, Name: StaticProfile,
			Sched: func() starpu.Scheduler { return sched.NewStaticProfile(rates) }}},
		{"[20] Hummel et al.", Cell{Sc: sc, Name: "weighted-factoring", Sched: func() starpu.Scheduler {
			return sched.NewWeightedFactoring(sched.Config{InitialBlockSize: blk}, rates)
		}}},
		{"ablation", Cell{Sc: sc, Name: "static-oracle",
			Sched: func() starpu.Scheduler { return sched.NewStatic() }}},
	}
	cells := make([]Cell, len(entries))
	for i, e := range entries {
		cells[i] = e.cell
	}
	results, err := r.RunCells(cells)
	if err != nil {
		return err
	}

	t := NewTable(
		fmt.Sprintf("related-work comparison — MM %d, 4 machines", size),
		"Scheduler", "Origin", "Time s", "Std", "Speedup vs greedy")
	greedyMean := find(results, Greedy).Makespan.Mean
	for i, res := range results {
		sp := "-"
		if greedyMean > 0 {
			sp = fmt.Sprintf("%.2f", greedyMean/res.Makespan.Mean)
		}
		t.AddRow(string(res.Sched), entries[i].origin,
			fmt.Sprintf("%.3f", res.Makespan.Mean),
			fmt.Sprintf("%.3f", res.Makespan.Std), sp)
	}
	return t.Emit(o, "related")
}
