package expt

import (
	"fmt"
	"io"
	"math"

	"plbhec/internal/starpu"
	"plbhec/internal/telemetry/span"
)

// RunExplain runs one representative cell per paper scheduler and prints
// each run's critical-path attribution: the blame vector (where every
// unit-second of the run went), per-block latency percentiles, and the
// top critical chains. It is wired to plbbench -explain rather than the
// experiment registry — it diagnoses runs instead of reproducing a paper
// artifact. The error return doubles as the smoke check: any blame vector
// that does not sum to 1 within 1e-6 fails the command.
func RunExplain(o Options) error {
	kind := MM
	size := o.size(kind, PaperSizes(kind)[0])
	sc := Scenario{Kind: kind, Size: size, Machines: 2, Seeds: 1, BaseSeed: 1000}
	r := o.runner()
	var cells []Cell
	for _, name := range PaperSchedulers() {
		cells = append(cells, Cell{Sc: sc, Name: name})
	}
	results, err := r.RunCells(cells)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "critical-path attribution — %s %d, %d machines, seed %d\n",
		kind, size, sc.Machines, sc.BaseSeed)
	for i, res := range results {
		if res == nil || res.LastReport == nil {
			continue
		}
		an := span.Analyze(span.FromReport(res.LastReport), 3)
		fmt.Fprintf(o.Out, "\n%s:\n", cells[i].Name)
		WriteAttribution(o.Out, an, res.PUNames)
		WriteSolverStats(o.Out, res.LastReport.SolverStats)
		if s := an.Blame.Sum(); math.Abs(s-1) > 1e-6 {
			return fmt.Errorf("expt: %s blame vector sums to %.9f, want 1", cells[i].Name, s)
		}
	}
	return nil
}

// WriteAttribution renders one run's Analysis as the -explain text block
// shared by plbsim and plbbench. puNames maps unit indices to names and may
// be nil.
func WriteAttribution(w io.Writer, an *span.Analysis, puNames []string) {
	if an.Blocks == 0 {
		fmt.Fprintln(w, "  no completed blocks — nothing to attribute")
		return
	}
	fmt.Fprintf(w, "  makespan %.3f s, %d blocks on %d units\n", an.Makespan, an.Blocks, an.NumPU)
	fmt.Fprintf(w, "  blame:")
	for _, c := range span.Categories() {
		fmt.Fprintf(w, "  %s %.1f%%", c, 100*an.Blame.Get(c))
	}
	fmt.Fprintf(w, "  (sum %.1f%%)\n", 100*an.Blame.Sum())
	fmt.Fprintf(w, "  block latency: p50 %.4f s  p99 %.4f s  p999 %.4f s\n",
		an.LatencyP50, an.LatencyP99, an.LatencyP999)
	for i, ch := range an.Chains {
		head := "critical chain"
		if i > 0 {
			head = fmt.Sprintf("runner-up chain %d", i)
		}
		fmt.Fprintf(w, "  %s — ends %.3f s on %s, %d steps:",
			head, ch.End, puName(puNames, ch.PU), len(ch.Steps))
		for _, c := range span.Categories() {
			if sec := ch.Attributed.Get(c); sec > 0 {
				fmt.Fprintf(w, "  %s %.3f s", c, sec)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteSolverStats renders one solver-stats line for schedulers that run a
// block-size solver (nil st — non-solver schedulers — prints nothing).
func WriteSolverStats(w io.Writer, st *starpu.SolverStats) {
	if st == nil {
		return
	}
	fmt.Fprintf(w, "  solver: %.0f solves, %.0f failed, mean %.1f τ steps/solve, %.2f ms host time\n",
		st.Solves, st.Solves-st.ColdStarts, st.MeanIterations(), 1e3*st.SolveSeconds)
}

// puName resolves a unit index to its cluster name ("master" for -1).
func puName(names []string, pu int32) string {
	if pu < 0 {
		return "master"
	}
	if int(pu) < len(names) {
		return names[pu]
	}
	return fmt.Sprintf("pu%d", pu)
}
