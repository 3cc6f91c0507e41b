package sched_test

import (
	"sync"
	"testing"
	"time"

	"plbhec/internal/cluster"
	"plbhec/internal/expt"
	"plbhec/internal/fault"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// rebalanceCauses counts EvRebalance events by cause and checks that every
// threshold rebalance predicted a saving larger than its charged cost.
type rebalanceCauses struct {
	t     *testing.T
	count map[string]int
}

func (c rebalanceCauses) Consume(ev telemetry.Event) {
	if ev.Kind != telemetry.EvRebalance {
		return
	}
	c.count[ev.Name]++
	if ev.Name == "threshold" && !(ev.Value > ev.Aux) {
		c.t.Errorf("threshold rebalance at %.3fs: saving %gs does not exceed cost %gs", ev.Time, ev.Value, ev.Aux)
	}
}

// runCauses runs s on sess with a rebalanceCauses sink attached.
func runCauses(t *testing.T, sess *starpu.Session, s starpu.Scheduler) (*starpu.Report, map[string]int) {
	t.Helper()
	c := rebalanceCauses{t: t, count: map[string]int{}}
	tel := telemetry.New()
	tel.Attach(c)
	sess.AttachTelemetry(tel)
	rep, err := sess.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return rep, c.count
}

// mm4096 runs MM 4096 on the Table I cluster of the given size (seed 100)
// under scheduler name.
func mm4096(t *testing.T, machines int, name expt.SchedName, prepare func(*starpu.Session, *cluster.Cluster)) (*starpu.Report, map[string]int) {
	t.Helper()
	clu := cluster.TableI(cluster.Config{Machines: machines, Seed: 100, NoiseSigma: cluster.DefaultNoiseSigma})
	sess := starpu.NewSimSession(clu, expt.MakeApp(expt.MM, 4096), starpu.SimConfig{})
	if prepare != nil {
		prepare(sess, clu)
	}
	s, err := expt.NewScheduler(name, expt.InitialBlock(expt.MM, 4096, machines))
	if err != nil {
		t.Fatal(err)
	}
	return runCauses(t, sess, s)
}

// TestPLBHeCRebalancePaysBack: a threshold detection starts a rebalance
// only when the block-time spread over the rounds left exceeds the charged
// fit and solve. On a sub-second input the 170 ms solve cannot pay back, so
// PLB-HeC keeps its first distribution; a real slowdown on a long run still
// rebalances, a failure always does, and so does every detection on the
// live engine, where nothing is charged.
func TestPLBHeCRebalancePaysBack(t *testing.T) {
	t.Run("mm4096-m2", func(t *testing.T) {
		rep, causes := mm4096(t, 2, expt.PLBHeC, nil)
		if rep.Makespan > 0.39 || causes["threshold"] != 0 {
			t.Errorf("makespan %.3fs with %d threshold rebalances, want ≤ 0.39s and none", rep.Makespan, causes["threshold"])
		}
	})
	t.Run("mm4096-m4", func(t *testing.T) {
		plb, _ := mm4096(t, 4, expt.PLBHeC, nil)
		greedy, _ := mm4096(t, 4, expt.Greedy, nil)
		if plb.Makespan > 2*greedy.Makespan || plb.Makespan <= greedy.Makespan {
			t.Errorf("PLB-HeC %.3fs against greedy %.3fs, want within 2× with greedy faster", plb.Makespan, greedy.Makespan)
		}
	})
	t.Run("fig3", func(t *testing.T) {
		// The Fig. 3 cell: MM 32768 on 2 machines, GPU 0 at 0.35× from t=8.
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 11, NoiseSigma: cluster.DefaultNoiseSigma})
		sess := starpu.NewSimSession(clu, expt.MakeApp(expt.MM, 32768), starpu.SimConfig{})
		gpu := clu.Machines[0].GPUs[0]
		if err := sess.ScheduleAt(8, func() { gpu.SetSpeedFactor(0.35) }); err != nil {
			t.Fatal(err)
		}
		s, err := expt.NewScheduler(expt.PLBHeC, expt.InitialBlock(expt.MM, 32768, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, causes := runCauses(t, sess, s); causes["threshold"] < 1 {
			t.Error("the slowdown started no threshold rebalance")
		}
	})
	t.Run("failure", func(t *testing.T) {
		// The remote GPU dies in the execution phase of the cell whose
		// threshold detections do not pay back.
		rep, causes := mm4096(t, 2, expt.PLBHeC, func(sess *starpu.Session, clu *cluster.Cluster) {
			fs := fault.Schedule{Name: "death", Specs: []fault.FaultSpec{
				{Kind: fault.DeviceDeath, At: 0.21, PU: 3},
			}}
			if err := fs.Apply(sess, clu); err != nil {
				t.Fatal(err)
			}
		})
		if causes["failure"] != 1 || rep.SchedulerStats["failures"] != 1 {
			t.Errorf("%d failure rebalances for %g failures, want 1 and 1", causes["failure"], rep.SchedulerStats["failures"])
		}
	})
	t.Run("live", func(t *testing.T) {
		// Worker 1 runs at a third of its speed from the first solve on.
		const units = 1 << 14
		k := &slowAfterKernel{perUnit: 20 * time.Microsecond, victim: 1, factor: 3, slow: map[int64]bool{}}
		sess := starpu.NewLiveSession(k, starpu.LiveConfig{
			Workers:    []starpu.LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}},
			TotalUnits: units, AppName: "sleep",
		})
		p := sched.NewPLBHeC(sched.Config{InitialBlockSize: 64})
		// Sixteen blocks per unit leave rounds to act on after the detection.
		p.ExecutionSteps = 16
		c := rebalanceCauses{t: t, count: map[string]int{}}
		tel := telemetry.New()
		tel.Attach(k)
		tel.Attach(c)
		sess.AttachTelemetry(tel)
		rep, err := sess.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if c.count["threshold"] < 1 || rep.SchedulerStats["rebalancesDeclined"] != 0 {
			t.Errorf("%d threshold rebalances, %g declined; want at least one and none declined",
				c.count["threshold"], rep.SchedulerStats["rebalancesDeclined"])
		}
	})
}

// slowAfterKernel sleeps perUnit per work unit, factor times as long for
// the blocks sent to unit victim after the first recorded distribution. It
// tells those blocks by their first unit, following the submission events:
// without requeues each block is cut from the input right after the last.
type slowAfterKernel struct {
	perUnit time.Duration
	victim  int
	factor  float64

	mu   sync.Mutex
	on   bool           // a distribution has been recorded
	next int64          // first unit of the next block submitted
	slow map[int64]bool // first units of the victim's slowed blocks
}

func (k *slowAfterKernel) Consume(ev telemetry.Event) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch ev.Kind {
	case telemetry.EvDistribution:
		k.on = true
	case telemetry.EvTaskSubmit:
		if k.on && ev.PU == k.victim {
			k.slow[k.next] = true
		}
		k.next += ev.Units
	}
}

func (k *slowAfterKernel) Execute(lo, hi int64) {
	k.mu.Lock()
	f := 1.0
	if k.slow[lo] {
		f = k.factor
	}
	k.mu.Unlock()
	time.Sleep(time.Duration(f * float64(hi-lo) * float64(k.perUnit)))
}
