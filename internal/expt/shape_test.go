package expt

import (
	"testing"

	"plbhec/internal/cluster"
)

// The shape regression suite: one test per paper artifact asserting the
// *qualitative* claims at full scale. These are the contract that device-
// model or scheduler changes must not silently break (see CONTRIBUTING.md).

func cell(t *testing.T, kind AppKind, size int64, machines int, name SchedName) *Result {
	t.Helper()
	sc := Scenario{Kind: kind, Size: size, Machines: machines, Seeds: 3, BaseSeed: 400}
	res, err := NewRunner(nil, 1).RunCell(sc, name)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShapeFig4GRN: at the largest GRN input with 4 machines, PLB-HeC wins
// and every dynamic scheduler beats greedy.
func TestShapeFig4GRN(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape test")
	}
	size := PaperSizes(GRN)[2]
	plb := cell(t, GRN, size, 4, PLBHeC)
	hdss := cell(t, GRN, size, 4, HDSS)
	acosta := cell(t, GRN, size, 4, Acosta)
	greedy := cell(t, GRN, size, 4, Greedy)
	if plb.Makespan.Mean >= hdss.Makespan.Mean || plb.Makespan.Mean >= acosta.Makespan.Mean {
		t.Errorf("GRN: PLB-HeC (%.1f) should lead HDSS (%.1f) and Acosta (%.1f)",
			plb.Makespan.Mean, hdss.Makespan.Mean, acosta.Makespan.Mean)
	}
	for _, r := range []*Result{plb, hdss, acosta} {
		if r.Makespan.Mean >= greedy.Makespan.Mean {
			t.Errorf("GRN: %s (%.1f) should beat greedy (%.1f)",
				r.Sched, r.Makespan.Mean, greedy.Makespan.Mean)
		}
	}
}

// TestShapeFig5BS: at 500k options with 4 machines PLB-HeC beats greedy;
// at 10k options greedy wins (the small-input crossover).
func TestShapeFig5BS(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape test")
	}
	big := PaperSizes(BS)[2]
	if plb, greedy := cell(t, BS, big, 4, PLBHeC), cell(t, BS, big, 4, Greedy); plb.Makespan.Mean >= greedy.Makespan.Mean {
		t.Errorf("BS-%d: PLB-HeC (%.2f) should beat greedy (%.2f)", big, plb.Makespan.Mean, greedy.Makespan.Mean)
	}
	small := PaperSizes(BS)[0]
	if plb, greedy := cell(t, BS, small, 4, PLBHeC), cell(t, BS, small, 4, Greedy); plb.Makespan.Mean <= greedy.Makespan.Mean {
		t.Errorf("BS-%d: greedy (%.2f) should win at the small input vs PLB-HeC (%.2f)",
			small, greedy.Makespan.Mean, plb.Makespan.Mean)
	}
}

// TestShapeFig6GPUShares: PLB-HeC's distribution gives the big GPUs
// (machines C and D) at least as much as HDSS's, and the CPUs little.
func TestShapeFig6GPUShares(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape test")
	}
	size := PaperSizes(MM)[2]
	plb := cell(t, MM, size, 4, PLBHeC)
	hdss := cell(t, MM, size, 4, HDSS)
	bigGPUs := func(d []float64) float64 { return d[5] + d[7] }
	cpus := func(d []float64) float64 { return d[0] + d[2] + d[4] + d[6] }
	if bigGPUs(plb.DistMean) < bigGPUs(hdss.DistMean)*0.95 {
		t.Errorf("PLB-HeC big-GPU share %.3f vs HDSS %.3f — Fig. 6's contrast lost",
			bigGPUs(plb.DistMean), bigGPUs(hdss.DistMean))
	}
	if cpus(plb.DistMean) > 0.10 {
		t.Errorf("PLB-HeC gives CPUs %.1f%% of a step; Fig. 6 shows proportionally small CPU blocks",
			100*cpus(plb.DistMean))
	}
}

// TestShapeFig7Idleness: PLB-HeC idles less than HDSS at the large input,
// and PLB-HeC's idleness falls as the input grows.
func TestShapeFig7Idleness(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape test")
	}
	big := PaperSizes(MM)[2]
	plbBig := cell(t, MM, big, 4, PLBHeC)
	hdssBig := cell(t, MM, big, 4, HDSS)
	if plbBig.MeanIdle.Mean >= hdssBig.MeanIdle.Mean {
		t.Errorf("idleness: PLB-HeC %.2f should be below HDSS %.2f at MM-%d",
			plbBig.MeanIdle.Mean, hdssBig.MeanIdle.Mean, big)
	}
	small := PaperSizes(MM)[0]
	plbSmall := cell(t, MM, small, 4, PLBHeC)
	if plbBig.MeanIdle.Mean >= plbSmall.MeanIdle.Mean {
		t.Errorf("idleness should fall with input size: %.2f at %d vs %.2f at %d",
			plbSmall.MeanIdle.Mean, small, plbBig.MeanIdle.Mean, big)
	}
}

// TestShapeNetworkCompression: a 1 GbE fabric compresses PLB-HeC's speedup
// relative to the 10 GbE default (the DESIGN.md §1 argument).
func TestShapeNetworkCompression(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape test")
	}
	r := NewRunner(nil, 1)
	speedup := func(bwBps float64) float64 {
		sc := Scenario{Kind: MM, Size: 65536, Machines: 4, Seeds: 1, BaseSeed: 401,
			NewCluster: func(seed int64) *cluster.Cluster {
				return cluster.TableI(cluster.Config{
					Machines: 4, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma,
					Fabric: &cluster.Link{Name: "fabric", BandwidthBps: bwBps, LatencySec: 50e-6},
				})
			}}
		res, err := r.RunCells([]Cell{{Sc: sc, Name: PLBHeC}, {Sc: sc, Name: Greedy}})
		if err != nil {
			t.Fatal(err)
		}
		return Speedup(res[0], res[1])
	}
	slow := speedup(117e6)
	fast := speedup(1.17e9)
	if slow >= fast {
		t.Errorf("1 GbE speedup %.2f should be below 10 GbE's %.2f (transfer-bound compression)",
			slow, fast)
	}
}

// TestShapeScale1kPU: on generated 1,000-PU clusters (the scale
// experiment's first tier, seeds 1–3) PLB-HeC finishes no later than HDSS,
// and its first solve comes before 15% of its makespan: per-unit probing
// does not wait for the slowest CPU's first probe.
func TestShapeScale1kPU(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape test")
	}
	r := NewRunner(nil, 1)
	tier := scaleTiers(false)[0]
	for seed := int64(1); seed <= scaleSeeds; seed++ {
		var cells []Cell
		for _, c := range scaleCells(tier, seed) {
			if c.Name == PLBHeC || c.Name == HDSS {
				cells = append(cells, c)
			}
		}
		res, err := r.RunCells(cells)
		if err != nil {
			t.Fatal(err)
		}
		plb, hdss := readScaleRun(find(res, PLBHeC).LastReport), readScaleRun(find(res, HDSS).LastReport)
		if plb.makespan > hdss.makespan {
			t.Errorf("seed %d: PLB-HeC makespan %.0f exceeds HDSS's %.0f", seed, plb.makespan, hdss.makespan)
		}
		if plb.split <= 0 || plb.split >= 0.15*plb.makespan {
			t.Errorf("seed %d: first solve at %.0f of %.0f s, want before 15%%", seed, plb.split, plb.makespan)
		}
	}
}
