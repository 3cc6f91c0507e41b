package plbhec_test

import (
	"math"
	"strings"
	"testing"

	"plbhec"
)

// TestPublicAPISimulation exercises the package-level facade the way a
// downstream user would: build the paper's cluster, pick a workload, run
// two schedulers, compare.
func TestPublicAPISimulation(t *testing.T) {
	app := plbhec.MatMul(plbhec.MatMulConfig{N: 8192})

	run := func(s plbhec.Scheduler) *plbhec.Report {
		clu := plbhec.TableICluster(plbhec.ClusterConfig{
			Machines: 4, Seed: 1, NoiseSigma: plbhec.DefaultNoiseSigma,
		})
		rep, err := plbhec.Simulate(clu, app, s)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	plb := run(plbhec.NewPLBHeC(plbhec.SchedulerConfig{InitialBlockSize: 8}))
	greedy := run(plbhec.NewGreedy(plbhec.SchedulerConfig{InitialBlockSize: 8}))
	oracle := run(plbhec.NewStaticOracle())

	for _, rep := range []*plbhec.Report{plb, greedy, oracle} {
		if rep.Makespan <= 0 || rep.TotalUnits != 8192 {
			t.Errorf("%s: bad report %+v", rep.SchedulerName, rep)
		}
	}
	if oracle.Makespan > greedy.Makespan {
		t.Errorf("oracle (%.3f) should not lose to greedy (%.3f)",
			oracle.Makespan, greedy.Makespan)
	}
	if idle := plbhec.MeanIdle(plb); idle < 0 || idle > 1 {
		t.Errorf("MeanIdle = %g", idle)
	}
	if us := plbhec.Usage(plb); len(us) != 8 {
		t.Errorf("Usage entries = %d", len(us))
	}
	if g := plbhec.RenderGantt(plb, 60); !strings.Contains(g, "█") {
		t.Error("gantt render empty")
	}
}

// TestPublicAPILive runs a real kernel through the facade's live path.
type doubler struct{ out []int64 }

func (d *doubler) Execute(lo, hi int64) {
	for i := lo; i < hi; i++ {
		d.out[i] = 2 * i
	}
}

func TestPublicAPILive(t *testing.T) {
	k := &doubler{out: make([]int64, 300)}
	rep, err := plbhec.RunLive(k, plbhec.LiveConfig{
		Workers: []plbhec.LiveWorkerSpec{
			{Name: "a"}, {Name: "b", Slowdown: 2},
		},
		TotalUnits: 300,
		AppName:    "doubler",
	}, plbhec.NewGreedy(plbhec.SchedulerConfig{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range k.out {
		if v != 2*int64(i) {
			t.Fatalf("unit %d not executed (got %d)", i, v)
		}
	}
	if rep.Makespan <= 0 {
		t.Error("live makespan should be positive")
	}
}

// TestPublicAPISolver drives the exposed block-size solver directly.
type lineCurve struct{ a float64 }

func (c lineCurve) Eval(x float64) float64 { return c.a * x }

func TestPublicAPISolver(t *testing.T) {
	res, err := plbhec.SolveBlockSizes(
		[]plbhec.SolverCurve{lineCurve{1}, lineCurve{3}}, 4, plbhec.SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("X = %v, want [3 1]", res.X)
	}
}

// TestPublicAPICustomCluster assembles machines by hand.
func TestPublicAPICustomCluster(t *testing.T) {
	specs := plbhec.TableIDevices()
	if len(specs) != 8 {
		t.Fatalf("TableIDevices = %d entries", len(specs))
	}
	m := &plbhec.Machine{
		Name: "custom",
		CPU:  plbhec.NewDevice(specs[0], 1, 0),
	}
	clu := plbhec.NewCluster(m)
	app := plbhec.BlackScholes(plbhec.BlackScholesConfig{Options: 1000})
	rep, err := plbhec.Simulate(clu, app, plbhec.NewGreedy(plbhec.SchedulerConfig{InitialBlockSize: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalUnits != 1000 {
		t.Errorf("units = %d", rep.TotalUnits)
	}
}
