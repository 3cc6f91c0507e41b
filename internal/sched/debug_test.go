package sched

import (
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

// TestDebugPLBHeC prints the internals of one PLB-HeC run (calibration aid,
// not an assertion test).
func TestDebugPLBHeC(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	app := apps.NewMatMul(apps.MatMulConfig{N: 49152})
	clu := cluster.TableI(cluster.Config{Machines: 4, Seed: 1, NoiseSigma: cluster.DefaultNoiseSigma})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	p := NewPLBHeC(Config{InitialBlockSize: 8})
	rep, err := sess.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("makespan=%.3f stats=%v\n", rep.Makespan, rep.SchedulerStats)
	for _, d := range rep.Distributions[:min(3, len(rep.Distributions))] {
		t.Logf("dist %q at %.3f: %v\n", d.Label, d.Time, d.X)
	}
	for i, m := range p.models.PU {
		t.Logf("PU %-18s model: %v\n", rep.PUNames[i], m)
	}
	total := float64(rep.TotalUnits)
	for i, m := range p.FirstModels().PU {
		d := rep.Distributions[0].X[i]
		x := d * total
		t.Logf("PU %-18s FIRST %v | share=%5.2f%% E(%7.1f)=%7.3fs floor=%.6f cap=%.6f maxS=%.0f\n",
			rep.PUNames[i], m, 100*d, x, m.Eval(x), m.FloorRate, m.CapRate, m.MaxSample)
	}
	// Equal-time check: evaluate the final models at the recorded share.
	if len(rep.Distributions) > 0 {
		d := rep.Distributions[len(rep.Distributions)-1]
		total := float64(rep.TotalUnits)
		for i, m := range p.models.PU {
			x := d.X[i] * total
			t.Logf("PU %-18s share=%6.3f%% x=%8.1f E(x)=%8.3fs floor=%.5f\n",
				rep.PUNames[i], 100*d.X[i], x, m.Eval(x), m.FloorRate)
		}
	}
	for _, r := range rep.Records[:min(40, len(rep.Records))] {
		t.Logf("  task pu=%d units=%5d submit=%8.3f xferEnd=%8.3f exec=[%8.3f,%8.3f]\n",
			r.PU, r.Units, r.SubmitTime, r.TransferEnd, r.ExecStart, r.ExecEnd)
	}
	// Ground truth per-unit nominal times at 1000 units for comparison.
	for _, pu := range clu.PUs() {
		t.Logf("PU %-18s true t(1000)=%.4f t(100)=%.4f\n", pu.Name(),
			pu.Dev.NominalExecSeconds(app.Profile(), 1000),
			pu.Dev.NominalExecSeconds(app.Profile(), 100))
	}
}
