package sched

import (
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

// TestLadderSolverFailureCompletes: with every solve failing, the scheduler
// must descend the degradation ladder (last-good → hdss → greedy) instead
// of aborting — the run completes, covers every unit, and the ladder
// transitions land in Report.SolverFallbacks and the scheduler stats.
func TestLadderSolverFailureCompletes(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 3})
	app := apps.NewMatMul(apps.MatMulConfig{N: 4096})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	p := NewPLBHeC(Config{InitialBlockSize: 16})
	p.failSolves = true
	rep, err := sess.Run(p)
	if err != nil {
		t.Fatalf("run must survive a dead solver via the ladder: %v", err)
	}
	var total int64
	for _, r := range rep.Records {
		total += r.Units
	}
	if total != 4096 {
		t.Errorf("records cover %d units, want 4096", total)
	}
	if len(rep.SolverFallbacks) == 0 {
		t.Fatal("no ladder transitions recorded in Report.SolverFallbacks")
	}
	if rep.SolverFallbacks["hdss"] == 0 && rep.SolverFallbacks["greedy"] == 0 {
		t.Errorf("ladder never reached a usable rung: %v", rep.SolverFallbacks)
	}
	if p.Stats()["ladderFallbacks"] == 0 {
		t.Errorf("scheduler stats missed the ladder: %v", p.Stats())
	}
}

// TestLadderHealthySolverNoFallbacks: a healthy solve path must never touch
// the ladder — SolverFallbacks stays empty and the rung stays 0.
func TestLadderHealthySolverNoFallbacks(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 3})
	app := apps.NewMatMul(apps.MatMulConfig{N: 4096})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	p := NewPLBHeC(Config{InitialBlockSize: 16})
	rep, err := sess.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SolverFallbacks) != 0 {
		t.Errorf("healthy run recorded ladder transitions: %v", rep.SolverFallbacks)
	}
	if p.Stats()["ladderRung"] != 0 {
		t.Errorf("healthy run ended on rung %g", p.Stats()["ladderRung"])
	}
}

// TestLadderRecovery: degrade then a successful solve — the scheduler must
// climb back to rung 0 and record the "recovered" transition. Exercised at
// the unit level (degrade / noteSolveOK are internal) on a scheduler with a
// primed share vector.
func TestLadderRecovery(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 3})
	app := apps.NewMatMul(apps.MatMulConfig{N: 1024})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	p := NewPLBHeC(Config{InitialBlockSize: 16})
	// Prime the scheduler through a healthy run so share/sampler exist.
	if _, err := sess.Run(p); err != nil {
		t.Fatal(err)
	}
	p.noteSolveOK(sess)
	if p.rung != 0 {
		t.Fatalf("rung = %d after a successful solve, want 0", p.rung)
	}
	p.degrade(sess)
	if p.rung == 0 {
		t.Fatal("degrade left the scheduler on rung 0")
	}
	first := p.rung
	p.degrade(sess)
	if p.rung < first {
		t.Errorf("repeated failure climbed the ladder: rung %d after %d", p.rung, first)
	}
	p.noteSolveOK(sess)
	if p.rung != 0 {
		t.Errorf("successful solve did not recover: rung %d", p.rung)
	}
}
