package expt

import (
	"fmt"

	"plbhec/internal/starpu"
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
	r := o.runner()
	names := PaperSchedulers()
	type cell struct {
		loc    *starpu.LocalityReport
		time   float64
		legacy float64
	}
	cells := make([]cell, len(names))
	err := r.forEach(len(names), func(ni int) error {
		sc := Scenario{
			Kind: MM, Size: size, Machines: 4, Seeds: o.seeds(),
			Passes:   localityPasses,
			Locality: true,
		}
		res, err := r.RunCell(sc, names[ni])
		if err != nil {
			return err
		}
		sc.Locality = false
		base, err := r.RunCell(sc, names[ni])
		if err != nil {
			return err
		}
		if res.LastReport == nil || res.LastReport.Locality == nil {
			return fmt.Errorf("locality: %s produced no residency report", names[ni])
		}
		cells[ni] = cell{
			loc:    res.LastReport.Locality,
			time:   res.Makespan.Mean,
			legacy: base.Makespan.Mean,
		}
		return nil
	})
	if err != nil {
		return err
	}
	for ni, name := range names {
		c := cells[ni]
		baseline := c.loc.BaselineBytes()
		drop := 0.0
		if baseline > 0 {
			drop = 100 * c.loc.SavedBytes / baseline
		}
		hitRate := 0.0
		if n := c.loc.Hits + c.loc.Misses; n > 0 {
			hitRate = float64(c.loc.Hits) / float64(n)
		}
		t.AddRow(string(name),
			fmt.Sprintf("%.2f", baseline/1e9),
			fmt.Sprintf("%.2f", c.loc.TransferredBytes/1e9),
			fmt.Sprintf("%.1f", drop),
			fmt.Sprintf("%.3f", hitRate),
			fmt.Sprintf("%d", c.loc.Evictions),
			fmt.Sprintf("%.3f", c.time),
			fmt.Sprintf("%.3f", c.legacy))
	}
	return t.Emit(o, "locality")
}
