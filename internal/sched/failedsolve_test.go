package sched

import (
	"fmt"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// solveNames counts EvSolve events by Name.
type solveNames map[string]int

func (c solveNames) Consume(ev telemetry.Event) {
	if ev.Kind == telemetry.EvSolve {
		c[ev.Name]++
	}
}

// TestFailedSolveEvenSplit: with every solve failing, the scheduler falls
// back to an even split over the surviving units instead of aborting. The
// run completes and covers every unit, no solve counts as successful, and
// each attempted solve emits exactly one EvSolve "failed".
func TestFailedSolveEvenSplit(t *testing.T) {
	for _, machines := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("machines=%d", machines), func(t *testing.T) {
			clu := cluster.TableI(cluster.Config{Machines: machines, Seed: 3})
			app := apps.NewMatMul(apps.MatMulConfig{N: 4096})
			sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
			solves := solveNames{}
			tel := telemetry.New()
			tel.Attach(solves)
			sess.AttachTelemetry(tel)
			p := NewPLBHeC(Config{InitialBlockSize: 16})
			p.failSolves = true
			rep, err := sess.Run(p)
			if err != nil {
				t.Fatalf("run must survive a failing solver: %v", err)
			}
			var total int64
			for _, r := range rep.Records {
				total += r.Units
			}
			if total != 4096 {
				t.Errorf("records cover %d units, want 4096", total)
			}
			st := rep.SolverStats
			if st == nil || st.Solves < 1 {
				t.Fatalf("SolverStats = %+v, want at least one solve", st)
			}
			if st.ColdStarts != 0 {
				t.Errorf("ColdStarts = %g with every solve failing, want 0", st.ColdStarts)
			}
			if got := float64(solves["failed"]); got != st.Solves || len(solves) != 1 {
				t.Errorf("EvSolve by name = %v, want only %g \"failed\"", solves, st.Solves)
			}
		})
	}
}

// TestHealthySolveNeverFails: on a healthy run every attempted solve
// succeeds.
func TestHealthySolveNeverFails(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 3})
	app := apps.NewMatMul(apps.MatMulConfig{N: 4096})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	rep, err := sess.Run(NewPLBHeC(Config{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	st := rep.SolverStats
	if st == nil || st.Solves < 1 {
		t.Fatalf("SolverStats = %+v, want at least one solve", st)
	}
	if st.Solves != st.ColdStarts {
		t.Errorf("Solves = %g, ColdStarts = %g: a healthy run had failed solves", st.Solves, st.ColdStarts)
	}
}
