package expt

import (
	"fmt"
)

func init() {
	register(Experiment{
		ID:    "fig4",
		Paper: "Fig. 4",
		Desc:  "Execution time and speedup vs greedy — MM and GRN, 1–4 machines, input-size sweep",
		Run:   func(o Options) error { return runTimeSweep(o, "fig4", []AppKind{MM, GRN}) },
	})
	register(Experiment{
		ID:    "fig5",
		Paper: "Fig. 5",
		Desc:  "Execution time and speedup vs greedy — Black-Scholes, 1–4 machines, option-count sweep",
		Run:   func(o Options) error { return runTimeSweep(o, "fig5", []AppKind{BS}) },
	})
	register(Experiment{
		ID:    "headline",
		Paper: "§V.a",
		Desc:  "Headline speedups at the largest MM input on 4 machines (paper: PLB-HeC 2.2, HDSS 1.2, Acosta 1.04)",
		Run:   runHeadline,
	})
}

// runTimeSweep reproduces Figs. 4/5: for each application, input size and
// machine count, the mean execution time (±σ over repetitions) of the four
// schedulers and their speedup relative to greedy. The whole
// (size × machines × scheduler) grid fans out over the worker pool; rows
// are emitted in grid order afterwards, so the table is byte-identical at
// any -jobs value.
func runTimeSweep(o Options, id string, kinds []AppKind) error {
	r := o.runner()
	for _, kind := range kinds {
		t := NewTable(
			fmt.Sprintf("%s — %s execution times (s) and speedup vs greedy", id, kind),
			"Size", "Machines", "Scheduler", "Time s", "Std", "Speedup", "p50 s", "p99 s", "p999 s")
		var cells []Cell
		type rowRef struct {
			size         int64
			m            int
			name         SchedName
			idx, baseIdx int
		}
		var rows []rowRef
		for _, rawSize := range PaperSizes(kind) {
			size := o.size(kind, rawSize)
			for _, m := range o.machinesAxis() {
				sc := Scenario{Kind: kind, Size: size, Machines: m, Seeds: o.seeds(), BaseSeed: 1000}
				baseIdx := len(cells)
				cells = append(cells, Cell{Sc: sc, Name: Greedy})
				for _, name := range PaperSchedulers() {
					idx := baseIdx
					if name != Greedy {
						idx = len(cells)
						cells = append(cells, Cell{Sc: sc, Name: name})
					}
					rows = append(rows, rowRef{size, m, name, idx, baseIdx})
				}
			}
		}
		results, err := r.RunCells(cells)
		if err != nil {
			return err
		}
		for _, rr := range rows {
			res, base := results[rr.idx], results[rr.baseIdx]
			t.AddRow(rr.size, rr.m, string(rr.name),
				fmt.Sprintf("%.3f", res.Makespan.Mean),
				fmt.Sprintf("%.3f", res.Makespan.Std),
				fmt.Sprintf("%.2f", Speedup(res, base)),
				fmt.Sprintf("%.4f", res.LatencyP50),
				fmt.Sprintf("%.4f", res.LatencyP99),
				fmt.Sprintf("%.4f", res.LatencyP999))
		}
		if err := t.Emit(o, fmt.Sprintf("%s-%s", id, kind)); err != nil {
			return err
		}
	}
	return nil
}

// runHeadline reproduces the paper's §V.a scalar claims on the largest MM
// input with four machines.
func runHeadline(o Options) error {
	kind := MM
	size := o.size(kind, PaperSizes(kind)[2])
	sc := Scenario{Kind: kind, Size: size, Machines: 4, Seeds: o.seeds(), BaseSeed: 1000}
	r := o.runner()
	// One cell per scheduler, greedy first as the baseline; all four fan
	// out together.
	cells := []Cell{{Sc: sc, Name: Greedy}}
	for _, name := range PaperSchedulers() {
		if name != Greedy {
			cells = append(cells, Cell{Sc: sc, Name: name})
		}
	}
	results, err := r.RunCells(cells)
	if err != nil {
		return err
	}
	base := results[0]
	byName := map[SchedName]*Result{Greedy: base}
	for i, c := range cells[1:] {
		byName[c.Name] = results[i+1]
	}
	t := NewTable(
		fmt.Sprintf("Headline speedups vs greedy — MM %d, 4 machines (paper: PLB-HeC 2.2, HDSS 1.2, Acosta 1.04)", size),
		"Scheduler", "Time s", "Speedup", "Paper speedup")
	paper := map[SchedName]string{PLBHeC: "2.2", HDSS: "1.2", Acosta: "1.04", Greedy: "1.0"}
	chart := NewBarChart("speedup vs greedy (measured)", "x")
	for _, name := range PaperSchedulers() {
		res := byName[name]
		t.AddRow(string(name), fmt.Sprintf("%.2f", res.Makespan.Mean),
			fmt.Sprintf("%.2f", Speedup(res, base)), paper[name])
		chart.Add(string(name), Speedup(res, base))
	}
	chart.SortDescending()
	if err := t.Emit(o, "headline"); err != nil {
		return err
	}
	if !o.Markdown {
		chart.Render(o.Out, 40)
	}
	return nil
}
