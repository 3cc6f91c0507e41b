package expt

import (
	"fmt"
)

func init() {
	register(Experiment{
		ID:    "locality",
		Paper: "docs/LOCALITY.md (re-paid transfers)",
		Desc:  "Data residency: transfer bytes avoided on a repeated-handle workload, per scheduler",
		Run:   runLocality,
	})
}

// localityPasses is the repeated-handle workload depth: the matrix is
// processed this many times over, so after the first pass every datum has
// already visited some device and a residency-blind runtime re-pays its
// transfer on each subsequent touch.
const localityPasses = 3

// runLocality quantifies the tentpole fix: on a workload that touches the
// same handles repeatedly, the legacy runtime re-pays the full transfer for
// every block while the residency cache ships only the bytes actually
// missing. Baseline bytes come from the locality run's own record stream
// (hits + misses — exactly what the legacy path would have charged for the
// same placements), so the drop column isolates re-paid transfers from
// scheduler placement differences.
func runLocality(o Options) error {
	size := o.size(MM, 16384)
	t := NewTable(
		fmt.Sprintf("data residency — MM %d ×%d passes, 4 machines", size, localityPasses),
		"Scheduler", "Baseline GB", "Shipped GB", "Drop %", "Hit rate", "Evictions",
		"Time s", "Legacy s")
	var cells []Cell
	for _, name := range PaperSchedulers() {
		sc := Scenario{Kind: MM, Size: size, Machines: 4, Seeds: o.seeds(), Passes: localityPasses}
		legacy := sc
		sc.Sim.Locality = true
		cells = append(cells, Cell{Sc: sc, Name: name}, Cell{Sc: legacy, Name: name})
	}
	results, err := o.runner().RunCells(cells)
	if err != nil {
		return err
	}
	for i := 0; i < len(results); i += 2 {
		res, legacy := results[i], results[i+1]
		if res.LastReport == nil {
			t.AddRow(string(res.Sched), "-", "-", "-", "-", "-", "-",
				fmt.Sprintf("%.3f", legacy.Makespan.Mean))
			continue
		}
		loc := res.LastReport.Locality
		if loc == nil {
			return fmt.Errorf("locality: %s produced no residency report", res.Sched)
		}
		baseline := loc.BaselineBytes()
		drop := 0.0
		if baseline > 0 {
			drop = 100 * loc.SavedBytes / baseline
		}
		hitRate := 0.0
		if n := loc.Hits + loc.Misses; n > 0 {
			hitRate = float64(loc.Hits) / float64(n)
		}
		t.AddRow(string(res.Sched),
			fmt.Sprintf("%.2f", baseline/1e9),
			fmt.Sprintf("%.2f", loc.TransferredBytes/1e9),
			fmt.Sprintf("%.1f", drop),
			fmt.Sprintf("%.3f", hitRate),
			fmt.Sprintf("%d", loc.Evictions),
			fmt.Sprintf("%.3f", res.Makespan.Mean),
			fmt.Sprintf("%.3f", legacy.Makespan.Mean))
	}
	return t.Emit(o, "locality")
}
