package expt

import (
	"fmt"
)

func init() {
	register(Experiment{
		ID:    "fig6",
		Paper: "Fig. 6",
		Desc:  "Block-size distribution among the 8 processing units (Acosta, HDSS, PLB-HeC), two sizes per application",
		Run:   runFig6,
	})
	register(Experiment{
		ID:    "fig7",
		Paper: "Fig. 7",
		Desc:  "Per-processing-unit idleness (PLB-HeC vs HDSS), two sizes per application",
		Run:   runFig7,
	})
}

// twoSizes returns the two input sizes per application used by Figs. 6–7.
func twoSizes(o Options, kind AppKind) []int64 {
	sizes := PaperSizes(kind)
	return []int64{o.size(kind, sizes[0]), o.size(kind, sizes[2])}
}

// runFig6 reproduces Fig. 6: the normalized per-unit data share computed at
// the end of each algorithm's modeling/adaptation phase, averaged over
// repetitions with standard deviations.
func runFig6(o Options) error {
	scheds := []SchedName{Acosta, HDSS, PLBHeC}
	r := o.runner()
	for _, kind := range []AppKind{MM, GRN, BS} {
		t := NewTable(
			fmt.Sprintf("fig6 — %s block-size distribution per processing unit (share of one step)", kind),
			"Size", "Scheduler", "PU", "Share", "Std")
		cells := sizeSchedGrid(o, kind, 2000, scheds)
		results, err := r.RunCells(cells)
		if err != nil {
			return err
		}
		for ci, res := range results {
			for i, pu := range res.PUNames {
				share, std := 0.0, 0.0
				if i < len(res.DistMean) {
					share, std = res.DistMean[i], res.DistStd[i]
				}
				t.AddRow(cells[ci].Sc.Size, string(cells[ci].Name), pu,
					fmt.Sprintf("%.4f", share), fmt.Sprintf("%.4f", std))
			}
		}
		if err := t.Emit(o, fmt.Sprintf("fig6-%s", kind)); err != nil {
			return err
		}
	}
	return nil
}

// sizeSchedGrid builds the (two sizes × schedulers) cell grid Figs. 6–7
// share, in row-emission order.
func sizeSchedGrid(o Options, kind AppKind, baseSeed int64, scheds []SchedName) []Cell {
	var cells []Cell
	for _, size := range twoSizes(o, kind) {
		sc := Scenario{Kind: kind, Size: size, Machines: 4, Seeds: o.seeds(), BaseSeed: baseSeed}
		for _, name := range scheds {
			cells = append(cells, Cell{Sc: sc, Name: name})
		}
	}
	return cells
}

// runFig7 reproduces Fig. 7: the fraction of the run each processing unit
// spent idle, for PLB-HeC and HDSS.
func runFig7(o Options) error {
	scheds := []SchedName{PLBHeC, HDSS}
	r := o.runner()
	for _, kind := range []AppKind{MM, GRN, BS} {
		t := NewTable(
			fmt.Sprintf("fig7 — %s processing-unit idle time (fraction of execution)", kind),
			"Size", "Scheduler", "PU", "Idle", "Std")
		cells := sizeSchedGrid(o, kind, 3000, scheds)
		results, err := r.RunCells(cells)
		if err != nil {
			return err
		}
		for ci, res := range results {
			for i, pu := range res.PUNames {
				t.AddRow(cells[ci].Sc.Size, string(cells[ci].Name), pu,
					fmt.Sprintf("%.4f", res.IdleMean[i]), fmt.Sprintf("%.4f", res.IdleStd[i]))
			}
		}
		if err := t.Emit(o, fmt.Sprintf("fig7-%s", kind)); err != nil {
			return err
		}
	}
	return nil
}
