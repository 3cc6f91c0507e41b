package sched

import (
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

// runFig3 replays the Fig. 3 mid-run-slowdown scenario (a GPU degrades to
// 35% speed at t=8s, forcing at least one threshold rebalance) with the
// default PLB-HeC and returns the report.
func runFig3(t *testing.T) *starpu.Report {
	t.Helper()
	app := apps.NewMatMul(apps.MatMulConfig{N: 32768})
	clu := cluster.TableI(cluster.Config{
		Machines: 2, Seed: 1, NoiseSigma: cluster.DefaultNoiseSigma,
	})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	gpu := clu.Machines[0].GPUs[0]
	if err := sess.ScheduleAt(8, func() { gpu.SetSpeedFactor(0.35) }); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(NewPLBHeC(Config{InitialBlockSize: 64}))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestWarmStartReducesRebalanceIterations checks that the default PLB-HeC
// seeds its re-solves on the Fig. 3 rebalance path from the previous
// iterate, and that the warm starts are visible through Report.SolverStats.
// That a warm start takes fewer Newton iterations than a cold one is
// asserted on the solver itself (ipm.TestSolverWarmStart).
func TestWarmStartReducesRebalanceIterations(t *testing.T) {
	rep := runFig3(t)
	if rep.SchedulerStats["rebalances"] < 1 {
		t.Fatal("no rebalance fired; scenario is not exercising re-solves")
	}
	st := rep.SolverStats
	if st == nil {
		t.Fatal("Report.SolverStats not populated")
	}
	if st.WarmStarts < 1 {
		t.Fatalf("no warm starts recorded (stats: %+v)", *st)
	}
	if hr := st.WarmHitRate(); hr <= 0 || hr > 1 {
		t.Errorf("warm hit rate = %g, want in (0, 1]", hr)
	}
	t.Logf("mean IPM iterations/solve %.2f (warm starts %.0f/%.0f solves)",
		st.MeanIterations(), st.WarmStarts, st.Solves)
}
