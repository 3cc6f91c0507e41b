package expt

import (
	"testing"

	"plbhec/internal/starpu"
)

// TestRunObserved asserts the mid-run snapshot API: samples arrive in
// order, progress counters are monotonic across them, and the scheduler's
// convergence markers (modeling coverage, at least one solve) are visible
// in the registry before the run ends. It also checks that an observed run
// runs the same workload as the cell it observes.
func TestRunObserved(t *testing.T) {
	sc := Scenario{Kind: MM, Size: 2048, Machines: 2, Seeds: 1}

	// First pass: learn the makespan so sample times land mid-run.
	probe, err := RunObserved(sc, PLBHeC, 0, nil)
	if err != nil {
		t.Fatalf("RunObserved(probe): %v", err)
	}
	mk := probe.Report.Makespan
	if mk <= 0 {
		t.Fatalf("probe makespan = %g", mk)
	}

	times := []float64{0.25 * mk, 0.5 * mk, 0.9 * mk}
	run, err := RunObserved(sc, PLBHeC, 0, times)
	if err != nil {
		t.Fatalf("RunObserved: %v", err)
	}
	if len(run.Samples) != len(times) {
		t.Fatalf("got %d samples, want %d", len(run.Samples), len(times))
	}

	const done = "plbhec_tasks_completed_total"
	prev := -1.0
	for i, s := range run.Samples {
		got := s.Snap.Total(done)
		if got < prev {
			t.Errorf("sample %d: %s went backwards: %g < %g", i, done, got, prev)
		}
		prev = got
	}
	mid := run.Samples[1].Snap
	if c := mid.Total(done); c <= 0 {
		t.Errorf("mid-run completed tasks = %g, want > 0", c)
	}
	if c := mid.Total(done); c >= run.Final.Total(done) {
		t.Errorf("mid-run completed (%g) not below final (%g)", c, run.Final.Total(done))
	}

	// Convergence markers: the modeling phase must have ended (coverage
	// recorded, below the 20%+slack cap) and the equation system solved by
	// 90% of the run.
	late := run.Samples[2].Snap
	if cov := late.Get("plbhec_model_coverage_ratio"); cov <= 0 || cov > 0.5 {
		t.Errorf("coverage ratio = %g, want in (0, 0.5]", cov)
	}
	if solves := late.Get("plbhec_ipm_solves_total"); solves < 1 {
		t.Errorf("solves = %g before 90%% of the run, want >= 1", solves)
	}
	if fits := run.Final.Get("plbhec_model_fits_total"); fits < 1 {
		t.Errorf("fits = %g, want >= 1", fits)
	}
	if n := run.Final.Total(done); n != float64(len(run.Report.Records)) {
		t.Errorf("final completed = %g, want %d (report records)", n, len(run.Report.Records))
	}

	// An observed run builds its session the way every cell does, so
	// Passes and Sim reach it: a three-pass locality scenario processes all
	// 12,288 units, carries a residency report, and produces the same
	// record stream as the cell's repetition.
	loc := Scenario{Kind: MM, Size: 4096, Machines: 2, Seeds: 1, Passes: 3,
		Sim: starpu.SimConfig{Locality: true}}
	obs, err := RunObserved(loc, PLBHeC, 0, nil)
	if err != nil {
		t.Fatalf("RunObserved(locality): %v", err)
	}
	res, err := NewRunner(nil, 1).RunCell(loc, PLBHeC)
	if err != nil {
		t.Fatal(err)
	}
	var units int64
	for _, r := range obs.Report.Records {
		units += r.Units
	}
	if units != 3*4096 {
		t.Errorf("observed run processed %d units, want %d", units, 3*4096)
	}
	if obs.Report.Locality == nil {
		t.Error("observed locality run carried no residency report")
	}
	if got, want := hashReport(obs.Report), hashReport(res.LastReport); got != want {
		t.Errorf("observed record stream %s differs from the cell's %s", got, want)
	}
}
