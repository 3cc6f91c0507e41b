package sched

import (
	"math"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

// TestPLBHeCLateUnitJoins: a unit still inside its first probe when the
// first solve is due is left out of it, keeps probing, and joins the
// distribution at a later rebalance; rebalances meanwhile do not wait for
// its probe. The Xeon of a two-machine Table I cluster runs 100× slower
// from the start, so its first probe ends long after the others have
// their models. Every unit is processed exactly once, with and without the
// fault-tolerance policies.
func TestPLBHeCLateUnitJoins(t *testing.T) {
	const n = 131072
	for _, tc := range []struct {
		name string
		cfg  starpu.SimConfig
	}{
		{"plain", starpu.SimConfig{}},
		{"retry+spec+health", starpu.SimConfig{
			Retry: true, Spec: starpu.DefaultSpeculationPolicy(), Health: starpu.DefaultHealthPolicy(),
		}},
	} {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 3, NoiseSigma: cluster.DefaultNoiseSigma})
		const slow = 0 // the Xeon E5-2690v2, first in cluster order
		clu.PUs()[slow].Dev.SetSpeedFactor(0.01)
		sess := starpu.NewSimSession(clu, apps.NewMatMul(apps.MatMulConfig{N: n}), tc.cfg)
		rep, err := sess.Run(NewPLBHeC(Config{InitialBlockSize: 16}))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(rep.Distributions) == 0 || rep.Distributions[0].Label != "modeling-phase" {
			t.Fatalf("%s: first distribution is not the modeling-phase solve: %+v", tc.name, rep.Distributions)
		}
		if x := rep.Distributions[0].X[slow]; x != 0 {
			t.Errorf("%s: the slowed unit has share %g in the first solve, want 0", tc.name, x)
		}
		// The drain of a rebalance does not wait for the slowed unit's first
		// probe, and the unit joins a later rebalance once it has probed.
		firstProbeEnd := math.Inf(1)
		for _, r := range rep.Records {
			if r.PU == slow {
				firstProbeEnd = min(firstProbeEnd, r.ExecEnd)
			}
		}
		var drainedEarly, joined bool
		for _, d := range rep.Distributions[1:] {
			drainedEarly = drainedEarly || d.Label == "rebalance" && d.Time < firstProbeEnd
			joined = joined || d.Label == "rebalance" && d.X[slow] > 0
		}
		if !drainedEarly {
			t.Errorf("%s: no rebalance completes before the slowed unit's first probe ends at %g", tc.name, firstProbeEnd)
		}
		if !joined {
			t.Errorf("%s: the slowed unit never joins a rebalance distribution", tc.name)
		}
		checkChaosInvariants(t, tc.name, rep, n, nil)
	}
}
