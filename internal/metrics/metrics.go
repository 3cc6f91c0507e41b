// Package metrics derives the paper's evaluation quantities from runtime
// task records: makespan, per-processing-unit idleness (Fig. 7), Gantt
// traces (Fig. 3), and block-size distributions (Fig. 6). It also turns a
// report into an ordered event trace, exported as JSON Lines for external
// tooling, and into a per-unit time breakdown and straggler chain for
// debugging (trace.go).
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"plbhec/internal/starpu"
)

// PUUsage summarizes one processing unit's activity over a run.
type PUUsage struct {
	PU           int
	Name         string
	BusySeconds  float64 // time executing kernels
	TransferSecs float64 // time moving data for its blocks
	Tasks        int
	Units        int64
	IdleFraction float64 // 1 − busy/makespan (the paper's idleness %)
}

// Usage computes per-unit activity from a report. A unit's idle time is
// measured against the run's makespan, matching the paper's "percentage of
// time that each CPU and GPU was idle during application execution".
func Usage(rep *starpu.Report) []PUUsage { return usage(rep, nil) }

// usage is Usage that also adds each unit's queueing waits (submit →
// transfer start, transfer end → kernel start) into queue when it is
// non-nil.
func usage(rep *starpu.Report, queue []float64) []PUUsage {
	n := len(rep.PUNames)
	us := make([]PUUsage, n)
	for i := range us {
		us[i] = PUUsage{PU: i, Name: rep.PUNames[i]}
	}
	for _, r := range rep.Records {
		u := &us[r.PU]
		u.BusySeconds += r.ExecSeconds()
		u.TransferSecs += r.TransferSeconds()
		u.Tasks++
		u.Units += r.Units
		if queue != nil {
			queue[r.PU] += (r.TransferStart - r.SubmitTime) + (r.ExecStart - r.TransferEnd)
		}
	}
	if rep.Makespan > 0 {
		for i := range us {
			us[i].IdleFraction = 1 - us[i].BusySeconds/rep.Makespan
			if us[i].IdleFraction < 0 {
				us[i].IdleFraction = 0
			}
		}
	}
	return us
}

// MeanIdle returns the mean idle fraction across units.
func MeanIdle(rep *starpu.Report) float64 {
	us := Usage(rep)
	if len(us) == 0 {
		return 0
	}
	var sum float64
	for _, u := range us {
		sum += u.IdleFraction
	}
	return sum / float64(len(us))
}

// UnitsShare returns the fraction of all work units each PU processed over
// the whole run (an execution-weighted view of the block distribution).
func UnitsShare(rep *starpu.Report) []float64 {
	share := make([]float64, len(rep.PUNames))
	var total float64
	for _, r := range rep.Records {
		share[r.PU] += float64(r.Units)
		total += float64(r.Units)
	}
	if total > 0 {
		for i := range share {
			share[i] /= total
		}
	}
	return share
}

// ModelingDistribution returns the block-size split recorded at the end of
// the scheduler's modeling/adaptation phase (what Fig. 6 plots for PLB-HeC
// and HDSS), or nil if the scheduler recorded none.
func ModelingDistribution(rep *starpu.Report) []float64 {
	if len(rep.Distributions) == 0 {
		return nil
	}
	return rep.Distributions[0].X
}

// FinalDistribution returns the last recorded block-size split (what Fig. 6
// plots for the Acosta algorithm, whose distribution converges over the
// whole execution), or nil if none was recorded.
func FinalDistribution(rep *starpu.Report) []float64 {
	if len(rep.Distributions) == 0 {
		return nil
	}
	return rep.Distributions[len(rep.Distributions)-1].X
}

// GanttInterval is one bar of a Gantt chart.
type GanttInterval struct {
	PU         int
	Start, End float64
	Kind       string // "transfer" or "exec"
	Units      int64
}

// Gantt flattens a report into per-unit chart intervals ordered by time.
func Gantt(rep *starpu.Report) []GanttInterval {
	var out []GanttInterval
	for _, r := range rep.Records {
		if r.TransferEnd > r.TransferStart {
			out = append(out, GanttInterval{r.PU, r.TransferStart, r.TransferEnd, "transfer", r.Units})
		}
		out = append(out, GanttInterval{r.PU, r.ExecStart, r.ExecEnd, "exec", r.Units})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].PU < out[j].PU
	})
	return out
}

// RenderGantt draws an ASCII Gantt chart (one row per unit, width columns),
// with '▒' for transfers and '█' for kernel execution.
func RenderGantt(rep *starpu.Report, width int) string {
	if width < 10 {
		width = 10
	}
	if rep.Makespan <= 0 {
		return "(empty run)\n"
	}
	rows := make([][]rune, len(rep.PUNames))
	for i := range rows {
		rows[i] = []rune(strings.Repeat("·", width))
	}
	col := func(t float64) int {
		c := int(t / rep.Makespan * float64(width))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	for _, iv := range Gantt(rep) {
		mark := '█'
		if iv.Kind == "transfer" {
			mark = '▒'
		}
		for c := col(iv.Start); c <= col(iv.End); c++ {
			if rows[iv.PU][c] == '·' || mark == '█' {
				rows[iv.PU][c] = mark
			}
		}
	}
	var b strings.Builder
	for i, row := range rows {
		fmt.Fprintf(&b, "%-16s |%s|\n", rep.PUNames[i], string(row))
	}
	fmt.Fprintf(&b, "%-16s 0%*s%.3fs\n", "", width-4, "", rep.Makespan)
	return b.String()
}
