package starpu

import (
	"sync/atomic"
	"testing"
	"time"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
)

// The composition table: every failure-handling policy set the runtime
// offers, on both engines, each run through a mid-run device death. Whatever
// the combination, every unit must be delivered exactly once and the run
// must end with no copy outstanding and every per-unit in-flight account
// settled to zero.

// composition is one row of the table: which policies the session carries.
type composition struct {
	name                string
	retry, spec, health bool
}

var compositions = []composition{
	{name: "none"},
	{name: "Retry", retry: true},
	{name: "Retry+Spec", retry: true, spec: true},
	{name: "Health", health: true},
	{name: "Health+Spec", health: true, spec: true},
}

func (c composition) policies() (*RetryPolicy, *SpeculationPolicy) {
	var retry *RetryPolicy
	if c.retry {
		retry = DefaultRetryPolicy()
	}
	var spec *SpeculationPolicy
	if c.spec {
		spec = &SpeculationPolicy{DeadlineMultiplier: 2, MinObservations: 1, SlowAfter: 2}
	}
	return retry, spec
}

// aliveScheduler hands each finishing unit its next block, moving to the
// next unit in ID order that is neither dead nor suspected when the
// finishing one is. Start queues two blocks per unit, so a unit killed early
// has blocks waiting behind its running one.
type aliveScheduler struct{ block float64 }

func (a *aliveScheduler) Name() string { return "alive" }

func (a *aliveScheduler) Start(s *Session) {
	for round := 0; round < 2; round++ {
		for _, pu := range s.PUs() {
			s.Assign(pu, a.block)
		}
	}
}

func (a *aliveScheduler) TaskFinished(s *Session, rec TaskRecord) {
	if s.Remaining() == 0 {
		return
	}
	pus := s.PUs()
	for i := range pus {
		pu := pus[(rec.PU+i)%len(pus)]
		if !pu.Dev.Failed() && !s.Suspected(pu.ID) {
			s.Assign(pu, a.block)
			return
		}
	}
}

// checkSettled asserts that a finished run left nothing behind: no copy in
// the copy table and every unit's in-flight count back at zero.
func checkSettled(t *testing.T, s *Session) {
	t.Helper()
	sum := 0
	for _, n := range s.inflightPU {
		sum += n
	}
	if sum != 0 {
		t.Errorf("sum of inflightPU = %d at run end, want 0 (%v)", sum, s.inflightPU)
	}
	if s.nCopies != 0 {
		t.Errorf("%d copies still outstanding at run end", s.nCopies)
	}
}

// countingSleepKernel counts executions per unit and sleeps per unit, so
// live blocks last long enough for deaths, watchdogs and suspicion to land
// while copies are queued or running.
type countingSleepKernel struct {
	hits    []int32
	perUnit time.Duration
}

func (k *countingSleepKernel) Execute(lo, hi int64) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&k.hits[i], 1)
	}
	time.Sleep(time.Duration(hi-lo) * k.perUnit)
}

// TestCompositionTable runs every row on the simulator, killing the busiest
// unit (the machine-A GPU) mid-block and turning the machine-B GPU into a
// 20x straggler at the same moment.
func TestCompositionTable(t *testing.T) {
	const n = 2048
	block := float64(n) / 32
	newSession := func(c composition) (*Session, *cluster.Cluster) {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
		retry, spec := c.policies()
		cfg := SimConfig{Retry: retry, Spec: spec}
		if c.health {
			cfg.Health = DefaultHealthPolicy()
		}
		return NewSimSession(clu, apps.NewMatMul(apps.MatMulConfig{N: n}), cfg), clu
	}
	// Kill mid-compute of the GPU's eighth fault-free block, while its next
	// block is already reserved behind it.
	pilot, _ := newSession(composition{})
	base, err := pilot.Run(&aliveScheduler{block: block})
	if err != nil {
		t.Fatal(err)
	}
	var killAt float64
	seen := 0
	for _, r := range base.Records {
		if r.PU == 1 {
			if seen++; seen == 8 {
				killAt = (r.ExecStart + r.ExecEnd) / 2
			}
		}
	}
	for _, c := range compositions {
		t.Run("sim/"+c.name, func(t *testing.T) {
			s, clu := newSession(c)
			pus := clu.PUs()
			if err := s.ScheduleAt(killAt, func() {
				pus[1].Dev.SetSpeedFactor(0)
				s.DeviceStateChanged(1)
				pus[3].Dev.SetSpeedFactor(0.05)
			}); err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(&aliveScheduler{block: block})
			if err != nil {
				t.Fatal(err)
			}
			checkExactlyOnce(t, rep.Records, n)
			checkSettled(t, s)
			// The scenario must reach the machinery the row enables.
			var specs int64
			for _, r := range rep.Resilience {
				specs += r.Speculations
			}
			dead := rep.Resilience[1]
			if (c.retry || c.health) && dead.Requeues == 0 {
				t.Errorf("the killed unit's blocks were never requeued: %+v", dead)
			}
			if c.health && dead.Suspicions != 1 {
				t.Errorf("Suspicions = %d on the killed unit, want 1", dead.Suspicions)
			}
			if c.spec && specs == 0 {
				t.Error("the straggler tripped no watchdog")
			}
		})
	}
}

// TestCompositionTableLive runs every row on the live engine: worker w1 is
// killed from the scheduler callback at the second completion, while two of
// its blocks are queued or running, and w2 runs 4x slow so watchdogs expire.
func TestCompositionTableLive(t *testing.T) {
	const units = 240
	for _, c := range compositions {
		t.Run("live/"+c.name, func(t *testing.T) {
			k := &countingSleepKernel{hits: make([]int32, units), perUnit: 200 * time.Microsecond}
			retry, spec := c.policies()
			cfg := LiveConfig{
				Workers:    []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}, {Name: "w2", Slowdown: 4}},
				TotalUnits: units,
				AppName:    "counting",
				Retry:      retry,
				Spec:       spec,
			}
			if c.health {
				cfg.Health = liveHealthPolicy()
			}
			s := NewLiveSession(k, cfg)
			s.SetPredictor(func(pu int, u float64) float64 { return u * 200e-6 })
			done := 0
			inner := &aliveScheduler{block: 20}
			sched := &callbackScheduler{
				start: inner.Start,
				finished: func(s *Session, rec TaskRecord) {
					if done++; done == 2 {
						s.PUs()[1].Dev.SetSpeedFactor(0)
						s.DeviceStateChanged(1)
					}
					inner.TaskFinished(s, rec)
				},
			}
			rep, err := s.Run(sched)
			if err != nil {
				t.Fatal(err)
			}
			checkExactlyOnce(t, rep.Records, units)
			if !c.spec {
				for i, h := range k.hits {
					if h != 1 {
						t.Fatalf("unit %d's kernel ran %d times", i, h)
					}
				}
			}
			checkSettled(t, s)
		})
	}
}
