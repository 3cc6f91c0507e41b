package sched_test

import (
	"math"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/expt"
	"plbhec/internal/ipm"
	"plbhec/internal/profile"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// capCount tallies, over every successful PLB-HeC solve, how often
// profile.Model's 2× CapRate bound beyond the largest sample decides a
// live unit's curve: whether E_p steps down where the cap starts, whether
// the cap binds anywhere between the largest sample and the work solved
// for, and whether it binds at the unit's solved block.
type capCount struct {
	p *sched.PLBHeC
	s *starpu.Session

	units, step, anywhere, atSolution int
}

// capped reports whether the cap decides Model.Eval at x.
func capped(m *profile.Model, x float64) bool {
	uncapped := *m
	uncapped.CapRate = 0
	return m.Eval(x) < uncapped.Eval(x)
}

// Consume re-solves the curves the scheduler just solved (the solver is
// deterministic, so the split is the scheduler's) and counts each live
// unit.
func (c *capCount) Consume(ev telemetry.Event) {
	if ev.Kind != telemetry.EvSolve || ev.Name != "waterfill" {
		return
	}
	total := float64(c.s.Remaining())
	curves, models, dead := c.p.SolveState()
	res, err := ipm.NewSolver(ipm.Options{}).Solve(ipm.Problem{Curves: curves, Total: total})
	if err != nil {
		panic(err)
	}
	for g := range models {
		m := &models[g]
		if dead[g] || m.MaxSample == 0 {
			continue
		}
		c.units++
		if capped(m, math.Nextafter(m.MaxSample, math.Inf(1))) {
			c.step++
		}
		for x := m.MaxSample * 1.01; x <= total; x *= 1.01 {
			if capped(m, x) {
				c.anywhere++
				break
			}
		}
		if capped(m, res.X[g]) {
			c.atSolution++
		}
	}
}

// run runs PLB-HeC on one session with the counter attached.
func (c *capCount) run(t *testing.T, sess *starpu.Session, initialBlock float64) {
	t.Helper()
	s, err := expt.NewScheduler(expt.PLBHeC, initialBlock)
	if err != nil {
		t.Fatal(err)
	}
	c.p, c.s = s.(*sched.PLBHeC), sess
	tel := telemetry.New()
	tel.Attach(c)
	sess.AttachTelemetry(tel)
	if _, err := sess.Run(c.p); err != nil {
		t.Fatal(err)
	}
}

// TestCapRateBinds measures how often the cap decides a solve on the
// benchmark's paper grid at seed 1 (expt.PaperSizes on 1–4 machines, cluster
// seeds 10–19, plus the Fig. 3 cell) and on the scale10k instance.
// EXPERIMENTS.md records the counts. Beyond the largest sample, E_p is the
// smaller of two non-decreasing curves, so it can only fall where the cap
// starts; the test pins that it never does there, so every solved curve is
// non-decreasing.
func TestCapRateBinds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 370 paper-grid simulations and the 10,000-unit instance")
	}
	var paper capCount
	for _, kind := range []expt.AppKind{expt.MM, expt.GRN, expt.BS} {
		for _, size := range expt.PaperSizes(kind) {
			for machines := 1; machines <= 4; machines++ {
				for seed := int64(10); seed < 20; seed++ {
					clu := cluster.TableI(cluster.Config{Machines: machines, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma})
					paper.run(t, starpu.NewSimSession(clu, expt.MakeApp(kind, size), starpu.SimConfig{}), expt.InitialBlock(kind, size, machines))
				}
			}
		}
	}
	for seed := int64(10); seed < 20; seed++ {
		// The Fig. 3 cell: MM 32768 on 2 machines, GPU 0 at 0.35× from t=8.
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma})
		sess := starpu.NewSimSession(clu, expt.MakeApp(expt.MM, 32768), starpu.SimConfig{})
		gpu := clu.Machines[0].GPUs[0]
		if err := sess.ScheduleAt(8, func() { gpu.SetSpeedFactor(0.35) }); err != nil {
			t.Fatal(err)
		}
		paper.run(t, sess, expt.InitialBlock(expt.MM, 32768, 2))
	}
	var scale capCount
	clu := cluster.Synthetic(2000, 4, cluster.Config{Seed: 0, NoiseSigma: cluster.DefaultNoiseSigma})
	scale.run(t, starpu.NewSimSession(clu, apps.NewMatMul(apps.MatMulConfig{N: 16 << 20}), starpu.SimConfig{}), 16)

	for _, c := range []struct {
		name string
		n    *capCount
	}{{"paper", &paper}, {"scale10k", &scale}} {
		t.Logf("%s: %d unit-solves; E_p steps down at the cap in %d, the cap binds below the solved total in %d and at the solved block in %d",
			c.name, c.n.units, c.n.step, c.n.anywhere, c.n.atSolution)
		if c.n.units == 0 {
			t.Errorf("%s: no solve observed", c.name)
		}
		if c.n.step != 0 {
			t.Errorf("%s: E_p steps down where the cap starts in %d unit-solves, want 0", c.name, c.n.step)
		}
	}
}
