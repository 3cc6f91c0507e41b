package sched

import (
	"math"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/metrics"
	"plbhec/internal/starpu"
)

func simRun(t *testing.T, machines int, n int64, s starpu.Scheduler, seed int64) *starpu.Report {
	t.Helper()
	clu := cluster.TableI(cluster.Config{Machines: machines, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma})
	app := apps.NewMatMul(apps.MatMulConfig{N: n})
	rep, err := starpu.NewSimSession(clu, app, starpu.SimConfig{}).Run(s)
	if err != nil {
		t.Fatalf("%s failed: %v", s.Name(), err)
	}
	return rep
}

func unitsProcessed(rep *starpu.Report) int64 {
	var total int64
	for _, r := range rep.Records {
		total += r.Units
	}
	return total
}

// --- Greedy -----------------------------------------------------------------

func TestGreedyFixedBlocks(t *testing.T) {
	rep := simRun(t, 2, 1000, NewGreedy(Config{InitialBlockSize: 100}), 1)
	if unitsProcessed(rep) != 1000 {
		t.Fatalf("processed %d units", unitsProcessed(rep))
	}
	for _, r := range rep.Records {
		if r.Units > 100 {
			t.Errorf("greedy block of %d units exceeds the fixed size", r.Units)
		}
	}
	if len(rep.Records) < 10 {
		t.Errorf("expected ≥10 fixed blocks, got %d", len(rep.Records))
	}
}

func TestGreedyZeroBlockDefaultsToOne(t *testing.T) {
	rep := simRun(t, 1, 16, NewGreedy(Config{}), 1)
	if unitsProcessed(rep) != 16 {
		t.Fatal("greedy with default block lost units")
	}
}

// --- PLB-HeC ----------------------------------------------------------------

func TestPLBHeCCompletesAllApps(t *testing.T) {
	for _, mk := range []func() *apps.App{
		func() *apps.App { return apps.NewMatMul(apps.MatMulConfig{N: 4096}) },
		func() *apps.App { return apps.NewGRN(apps.GRNConfig{Genes: 8000, Samples: 32}) },
		func() *apps.App {
			return apps.NewBlackScholes(apps.BlackScholesConfig{Options: 50000, Paths: 8192, Steps: 512})
		},
	} {
		app := mk()
		clu := cluster.TableI(cluster.Config{Machines: 4, Seed: 2, NoiseSigma: cluster.DefaultNoiseSigma})
		rep, err := starpu.NewSimSession(clu, app, starpu.SimConfig{}).Run(
			NewPLBHeC(Config{InitialBlockSize: 16}))
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if unitsProcessed(rep) != app.TotalUnits() {
			t.Errorf("%s: processed %d of %d units", app.Name(), unitsProcessed(rep), app.TotalUnits())
		}
	}
}

func TestPLBHeCModelingPhaseStructure(t *testing.T) {
	p := NewPLBHeC(Config{InitialBlockSize: 8})
	rep := simRun(t, 4, 16384, p, 3)
	stats := rep.SchedulerStats
	// modelRounds is the fewest probes any unit in the first solve took.
	if stats["modelRounds"] < 4 {
		t.Errorf("modeling rounds = %g, want ≥ 4 (every unit in the first solve probed at least four times)", stats["modelRounds"])
	}
	if stats["solves"] < 1 || stats["fits"] < 1 {
		t.Errorf("stats = %v: expected at least one fit and one solve", stats)
	}
	// The modeling phase must respect the 20% data cap.
	if cap := 0.2 * 16384; stats["modelUnits"] > cap+8*8 {
		t.Errorf("modeling consumed %g units, cap ≈ %g", stats["modelUnits"], cap)
	}
	if len(rep.Distributions) == 0 {
		t.Fatal("no distribution recorded")
	}
	// Distribution sums to 1 and GPUs dominate.
	d := rep.Distributions[0].X
	var sum, gpuShare float64
	for i, x := range d {
		sum += x
		if i%2 == 1 { // odd indices are GPUs in TableI order
			gpuShare += x
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %g", sum)
	}
	if gpuShare < 0.75 {
		t.Errorf("GPUs received %.1f%% of a step; expected the lion's share", 100*gpuShare)
	}
}

func TestPLBHeCGPUsGetLargerBlocksThanHDSS(t *testing.T) {
	// Fig. 6's qualitative claim: PLB-HeC allocates proportionally larger
	// blocks to the big GPUs (machines C, D) than HDSS/Acosta.
	plb := simRun(t, 4, 49152, NewPLBHeC(Config{InitialBlockSize: 12}), 5)
	hds := simRun(t, 4, 49152, NewHDSS(Config{InitialBlockSize: 12}), 5)
	dp := metrics.ModelingDistribution(plb)
	dh := metrics.ModelingDistribution(hds)
	if dp == nil || dh == nil {
		t.Fatal("missing distributions")
	}
	plbGPU := dp[5] + dp[7] // C/GTX680 + D/Titan
	hdsGPU := dh[5] + dh[7]
	if plbGPU < hdsGPU*0.9 {
		t.Errorf("PLB-HeC big-GPU share %.3f not larger than HDSS %.3f", plbGPU, hdsGPU)
	}
}

func TestPLBHeCSinglePU(t *testing.T) {
	// One machine, CPU only: strip the GPU so a single unit remains.
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	clu.Machines[0].GPUs = nil
	clu2 := cluster.New(clu.Machines...)
	app := apps.NewMatMul(apps.MatMulConfig{N: 512})
	rep, err := starpu.NewSimSession(clu2, app, starpu.SimConfig{}).Run(
		NewPLBHeC(Config{InitialBlockSize: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if unitsProcessed(rep) != 512 {
		t.Errorf("processed %d units", unitsProcessed(rep))
	}
}

func TestPLBHeCTinyInput(t *testing.T) {
	// Fewer units than one probing round: the modeling phase consumes
	// everything and the run must still terminate cleanly.
	rep := simRun(t, 4, 8, NewPLBHeC(Config{InitialBlockSize: 4}), 1)
	if unitsProcessed(rep) != 8 {
		t.Errorf("processed %d units", unitsProcessed(rep))
	}
}

func TestPLBHeCRebalanceOnSlowdown(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 3, NoiseSigma: cluster.DefaultNoiseSigma})
	app := apps.NewMatMul(apps.MatMulConfig{N: 32768})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	gpu := clu.Machines[0].GPUs[0]
	if err := sess.ScheduleAt(10, func() { gpu.SetSpeedFactor(0.3) }); err != nil {
		t.Fatal(err)
	}
	p := NewPLBHeC(Config{InitialBlockSize: 16})
	rep, err := sess.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchedulerStats["rebalances"] < 1 {
		t.Error("expected the threshold to trigger a rebalance after the slowdown")
	}
	if unitsProcessed(rep) != 32768 {
		t.Errorf("processed %d units", unitsProcessed(rep))
	}
}

func TestPLBHeCNoThresholdNoRebalance(t *testing.T) {
	p := NewPLBHeC(Config{InitialBlockSize: 8})
	p.Threshold = 0
	rep := simRun(t, 4, 16384, p, 1)
	if rep.SchedulerStats["rebalances"] != 0 {
		t.Errorf("rebalances = %g with threshold disabled", rep.SchedulerStats["rebalances"])
	}
}

// --- HDSS -------------------------------------------------------------------

func TestHDSSPhases(t *testing.T) {
	h := NewHDSS(Config{InitialBlockSize: 8})
	rep := simRun(t, 4, 16384, h, 1)
	if unitsProcessed(rep) != 16384 {
		t.Fatalf("processed %d units", unitsProcessed(rep))
	}
	if len(rep.Distributions) != 1 || rep.Distributions[0].Label != "phase-1" {
		t.Fatalf("expected one phase-1 weight record, got %+v", rep.Distributions)
	}
	// Weights sum to 1.
	var sum float64
	for _, w := range rep.Distributions[0].X {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
}

func TestHDSSDecreasingCompletionBlocks(t *testing.T) {
	h := NewHDSS(Config{InitialBlockSize: 8})
	rep := simRun(t, 2, 16384, h, 1)
	// After the adaptive phase, per-PU completion blocks must trend down.
	freeze := rep.Distributions[0].Time
	lastByPU := map[int]int64{}
	violations := 0
	for _, r := range rep.Records {
		if r.SubmitTime <= freeze {
			continue
		}
		if prev, ok := lastByPU[r.PU]; ok && r.Units > prev {
			violations++
		}
		lastByPU[r.PU] = r.Units
	}
	if violations > 2 {
		t.Errorf("%d completion blocks grew; factoring should shrink them", violations)
	}
}

// --- Acosta -----------------------------------------------------------------

func TestAcostaIterationBarriers(t *testing.T) {
	a := NewAcosta(Config{InitialBlockSize: 8})
	rep := simRun(t, 4, 16384, a, 1)
	if unitsProcessed(rep) != 16384 {
		t.Fatalf("processed %d units", unitsProcessed(rep))
	}
	if rep.SchedulerStats["iterations"] < 3 {
		t.Errorf("iterations = %g, want several", rep.SchedulerStats["iterations"])
	}
}

func TestAcostaWeightsImproveOverIterations(t *testing.T) {
	a := NewAcosta(Config{InitialBlockSize: 8})
	rep := simRun(t, 4, 49152, a, 1)
	if len(rep.Distributions) < 2 {
		t.Fatal("expected per-iteration weight records")
	}
	first := rep.Distributions[0].X
	last := rep.Distributions[len(rep.Distributions)-1].X
	// The Titan (index 7) should gain share as RP estimates converge.
	if last[7] <= first[7] {
		t.Errorf("Titan share did not grow: %.3f → %.3f", first[7], last[7])
	}
}

// --- Static oracle ----------------------------------------------------------

func TestStaticOracleNearOptimal(t *testing.T) {
	st := NewStatic()
	rep := simRun(t, 4, 16384, st, 1)
	if unitsProcessed(rep) != 16384 {
		t.Fatalf("processed %d units", unitsProcessed(rep))
	}
	// The oracle beats every dynamic policy on a stationary cluster.
	plb := simRun(t, 4, 16384, NewPLBHeC(Config{InitialBlockSize: 8}), 1)
	if rep.Makespan > plb.Makespan {
		t.Errorf("oracle (%.3fs) slower than PLB-HeC (%.3fs)", rep.Makespan, plb.Makespan)
	}
	// And idles very little.
	if idle := metrics.MeanIdle(rep); idle > 0.25 {
		t.Errorf("oracle idleness %.1f%%", 100*idle)
	}
}

// --- Cross-cutting ----------------------------------------------------------

func TestAllSchedulersConserveWorkAcrossSeeds(t *testing.T) {
	mks := []func() starpu.Scheduler{
		func() starpu.Scheduler { return NewGreedy(Config{InitialBlockSize: 8}) },
		func() starpu.Scheduler { return NewAcosta(Config{InitialBlockSize: 8}) },
		func() starpu.Scheduler { return NewHDSS(Config{InitialBlockSize: 8}) },
		func() starpu.Scheduler { return NewPLBHeC(Config{InitialBlockSize: 8}) },
		func() starpu.Scheduler { return NewStatic() },
	}
	for _, mk := range mks {
		for seed := int64(1); seed <= 3; seed++ {
			for _, machines := range []int{1, 3} {
				s := mk()
				rep := simRun(t, machines, 2048, s, seed)
				if unitsProcessed(rep) != 2048 {
					t.Errorf("%s m=%d seed=%d: processed %d units",
						s.Name(), machines, seed, unitsProcessed(rep))
				}
			}
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	names := map[string]starpu.Scheduler{
		"greedy":        NewGreedy(Config{}),
		"acosta":        NewAcosta(Config{}),
		"hdss":          NewHDSS(Config{}),
		"plb-hec":       NewPLBHeC(Config{}),
		"static-oracle": NewStatic(),
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name = %q, want %q", s.Name(), want)
		}
	}
}

func TestPLBHeCEqualTimeFirstBlocks(t *testing.T) {
	// The defining property of the block-size selection (Eq. 4): after the
	// first solve, each unit's first execution-phase block takes roughly
	// the same time *under the fitted models* (exact equality is asserted
	// at the solver level). Measured durations add model-extrapolation
	// error, so the bar here is a small constant factor — against the
	// ~200x spread an even split would produce on this cluster.
	p := NewPLBHeC(Config{InitialBlockSize: 16})
	rep := simRun(t, 4, 65536, p, 11)
	if len(rep.Distributions) == 0 {
		t.Fatal("no distribution")
	}
	solveTime := rep.Distributions[0].Time
	// First full execution block per PU after the solve.
	durs := map[int]float64{}
	for _, r := range rep.Records {
		if r.SubmitTime >= solveTime && durs[r.PU] == 0 && r.Units > 32 {
			durs[r.PU] = r.ExecEnd - r.TransferStart
		}
	}
	if len(durs) < 4 {
		t.Fatalf("too few post-solve blocks: %v", durs)
	}
	var lo, hi float64
	for _, d := range durs {
		if lo == 0 || d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi > 4*lo {
		t.Errorf("first-block durations spread %.3fs–%.3fs (> 4x): equal-time selection broken", lo, hi)
	}
}
