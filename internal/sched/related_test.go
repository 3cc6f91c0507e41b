package sched

import (
	"math"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

func TestStaticProfileFromPreviousRun(t *testing.T) {
	// Profile run: PLB-HeC on the target cluster yields per-unit rates.
	profileRep := simRun(t, 4, 16384, NewPLBHeC(Config{InitialBlockSize: 8}), 1)
	rates := RatesFromReport(profileRep)
	if len(rates) != 8 {
		t.Fatalf("rates = %v", rates)
	}
	// GPU rates must dominate CPU rates.
	if rates[1] < rates[0] || rates[7] < rates[6] {
		t.Errorf("GPU rates should exceed CPU rates: %v", rates)
	}

	// Static run with those profiles: near-oracle on a stationary cluster.
	sp := NewStaticProfile(rates)
	rep := simRun(t, 4, 16384, sp, 2)
	if unitsProcessed(rep) != 16384 {
		t.Fatalf("processed %d units", unitsProcessed(rep))
	}
	oracle := simRun(t, 4, 16384, NewStatic(), 2)
	if rep.Makespan > 2.0*oracle.Makespan {
		t.Errorf("static-profile %.3fs too far from oracle %.3fs", rep.Makespan, oracle.Makespan)
	}
}

func TestStaticProfileCannotAdapt(t *testing.T) {
	// The §II drawback: degrade a GPU mid-run; the static scheme keeps its
	// stale split while PLB-HeC rebalances and wins.
	rates := RatesFromReport(simRun(t, 2, 32768, NewPLBHeC(Config{InitialBlockSize: 16}), 1))

	run := func(s starpu.Scheduler) float64 {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 5, NoiseSigma: cluster.DefaultNoiseSigma})
		app := apps.NewMatMul(apps.MatMulConfig{N: 32768})
		sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
		gpu := clu.Machines[0].GPUs[0]
		if err := sess.ScheduleAt(5, func() { gpu.SetSpeedFactor(0.25) }); err != nil {
			t.Fatal(err)
		}
		rep, err := sess.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	static := run(NewStaticProfile(rates))
	dynamic := run(NewPLBHeC(Config{InitialBlockSize: 16}))
	if dynamic >= static {
		t.Errorf("PLB-HeC (%.3fs) should beat the static split (%.3fs) under QoS change",
			dynamic, static)
	}
}

func TestStaticProfileDefaultsToEqualRates(t *testing.T) {
	sp := NewStaticProfile(nil)
	rep := simRun(t, 2, 1024, sp, 1)
	if unitsProcessed(rep) != 1024 {
		t.Fatalf("processed %d units", unitsProcessed(rep))
	}
}

func TestWeightedFactoringEqualWeights(t *testing.T) {
	w := NewWeightedFactoring(Config{InitialBlockSize: 8}, nil)
	rep := simRun(t, 2, 4096, w, 1)
	if unitsProcessed(rep) != 4096 {
		t.Fatalf("processed %d units", unitsProcessed(rep))
	}
	// Decreasing rounds: a unit's blocks must shrink over time.
	byPU := map[int][]int64{}
	for _, r := range rep.Records {
		byPU[r.PU] = append(byPU[r.PU], r.Units)
	}
	for pu, blocks := range byPU {
		grow := 0
		for i := 1; i < len(blocks); i++ {
			if blocks[i] > blocks[i-1] {
				grow++
			}
		}
		if grow > 1 {
			t.Errorf("PU %d blocks grew %d times: %v", pu, grow, blocks)
		}
	}
}

func TestWeightedFactoringGoodWeightsBeatEqual(t *testing.T) {
	// Oracle-quality weights from nominal device rates.
	clu := cluster.TableI(cluster.Config{Machines: 4, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 16384})
	var weights []float64
	for _, pu := range clu.PUs() {
		weights = append(weights, 1/pu.Dev.NominalExecSeconds(app.Profile(), 1000))
	}
	good := simRun(t, 4, 16384, NewWeightedFactoring(Config{InitialBlockSize: 8}, weights), 3)
	equal := simRun(t, 4, 16384, NewWeightedFactoring(Config{InitialBlockSize: 8}, nil), 3)
	if good.Makespan >= equal.Makespan {
		t.Errorf("calibrated weights (%.3fs) should beat equal weights (%.3fs)",
			good.Makespan, equal.Makespan)
	}
}

func TestRelatedSchedulersSurviveFailure(t *testing.T) {
	rates := RatesFromReport(simRun(t, 2, 16384, NewPLBHeC(Config{InitialBlockSize: 8}), 1))
	for _, mk := range []func() starpu.Scheduler{
		func() starpu.Scheduler { return NewWeightedFactoring(Config{InitialBlockSize: 8}, nil) },
		func() starpu.Scheduler { return NewStaticProfile(rates) },
	} {
		runWithFailure(t, mk(), puRemoteGPU, 15)
	}
}

func TestRatesFromEmptyReport(t *testing.T) {
	rates := RatesFromReport(&starpu.Report{PUNames: []string{"a", "b"}})
	for _, r := range rates {
		if r != 0 || math.IsNaN(r) {
			t.Errorf("rates = %v", rates)
		}
	}
}
