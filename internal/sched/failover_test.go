package sched

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/fault"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// runWithFailure executes MM on 2 machines and kills the processing unit pu
// at failAt (simulated seconds), expressed as a declarative fault schedule.
// No retry policy is attached: surviving the death is entirely the
// scheduler's job, exactly as in the paper's §VI scenario.
func runWithFailure(t *testing.T, s starpu.Scheduler, pu int, failAt float64) *starpu.Report {
	t.Helper()
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 4, NoiseSigma: cluster.DefaultNoiseSigma})
	app := apps.NewMatMul(apps.MatMulConfig{N: 32768})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	fs := fault.Schedule{Name: "single-death", Specs: []fault.FaultSpec{
		{Kind: fault.DeviceDeath, At: failAt, PU: pu},
	}}
	if err := fs.Apply(sess, clu); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(s)
	if err != nil {
		t.Fatalf("%s did not survive the failure: %v", s.Name(), err)
	}
	var total int64
	for _, r := range rep.Records {
		total += r.Units
	}
	if total != app.TotalUnits() {
		t.Fatalf("%s: processed %d of %d units after failure", s.Name(), total, app.TotalUnits())
	}
	return rep
}

// Processing-unit indices in the 2-machine Table I cluster.
const (
	puRemoteCPU = 2 // B/i7-920
	puRemoteGPU = 3 // B/GTX 295
)

// TestFailoverPLBHeC: the paper's §VI fault-tolerance scenario — a device
// becomes unavailable mid-run and the data is redistributed among the
// remaining units.
func TestFailoverPLBHeC(t *testing.T) {
	rep := runWithFailure(t, NewPLBHeC(Config{InitialBlockSize: 16}), puRemoteGPU, 15)
	if rep.SchedulerStats["failures"] != 1 {
		t.Errorf("failures = %g, want 1", rep.SchedulerStats["failures"])
	}
	// The dead GPU (PU 3 = B/GTX 295) must receive no tasks after death:
	// every record on it must have been submitted before the failure.
	for _, r := range rep.Records {
		if r.PU == puRemoteGPU && r.SubmitTime > 15 {
			t.Errorf("task submitted to failed unit at t=%.3f", r.SubmitTime)
		}
	}
	// The fault injector reported the death to the session, so the report's
	// resilience block must agree with the scheduler's own failure count.
	if got := rep.Resilience[puRemoteGPU].Failovers; got != 1 {
		t.Errorf("Resilience[%d].Failovers = %d, want 1", puRemoteGPU, got)
	}
}

func TestFailoverPLBHeCCPUDeath(t *testing.T) {
	runWithFailure(t, NewPLBHeC(Config{InitialBlockSize: 16}), puRemoteCPU, 20)
}

func TestFailoverGreedy(t *testing.T) {
	runWithFailure(t, NewGreedy(Config{InitialBlockSize: 16}), puRemoteGPU, 15)
}

func TestFailoverHDSS(t *testing.T) {
	runWithFailure(t, NewHDSS(Config{InitialBlockSize: 16}), puRemoteGPU, 15)
}

func TestFailoverAcosta(t *testing.T) {
	runWithFailure(t, NewAcosta(Config{InitialBlockSize: 16}), puRemoteGPU, 15)
}

// TestFailoverEarly kills a device during the modeling phase, before the
// first distribution exists.
func TestFailoverEarly(t *testing.T) {
	runWithFailure(t, NewPLBHeC(Config{InitialBlockSize: 16}), puRemoteGPU, 0.5)
}

// The failure-observation tests kill a device, on a 1,000-unit cluster, in
// each way the code base can: a bare SetSpeedFactor inside a ScheduleAt
// callback (no DeviceStateChanged), a device dead before the run, a device
// that fails and recovers between two completions, and another goroutine
// flipping a live worker's device. PLB-HeC polls the devices only once
// device.FailureEpoch has moved, so each case checks that the death is
// still observed exactly once: the scheduler's failures stat, one
// EvFailover per dead unit, and every unit of work completed exactly once.

const (
	obsNodes = 250 // × (1 CPU + 3 GPUs) = 1,000 units
	obsUnits = 1 << 18
	obsPU    = 501 // the unit the tests kill, a GPU mid-cluster
)

// obsCluster is noise-free: its solves converge without falling back to
// water-filling, which keeps the tests fast under -race.
func obsCluster() *cluster.Cluster {
	return cluster.Synthetic(obsNodes, 3, cluster.Config{Seed: 7})
}

// failoverCounter counts EvFailover events per unit.
type failoverCounter map[int]int

func (c failoverCounter) Consume(ev telemetry.Event) {
	if ev.Kind == telemetry.EvFailover {
		c[ev.PU]++
	}
}

// fitPasses counts successful curve-fitting passes (pass-level EvFit).
type fitPasses struct{ n int }

func (c *fitPasses) Consume(ev telemetry.Event) {
	if ev.Kind == telemetry.EvFit && ev.PU == -1 {
		c.n++
	}
}

// runObserved runs PLB-HeC on sess with a failoverCounter and any extra
// sinks attached and checks that the records tile the work exactly once.
func runObserved(t *testing.T, sess *starpu.Session, sinks ...telemetry.Sink) (*starpu.Report, failoverCounter) {
	t.Helper()
	tel := telemetry.New()
	failovers := failoverCounter{}
	tel.Attach(failovers)
	for _, s := range sinks {
		tel.Attach(s)
	}
	sess.AttachTelemetry(tel)
	rep, err := sess.Run(NewPLBHeC(Config{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	checkChaosInvariants(t, "observed", rep, sess.TotalUnits(), nil)
	return rep, failovers
}

// checkObserved asserts the scheduler counted failures deaths and that
// EvFailover fired exactly once for each unit in dead and for no other.
func checkObserved(t *testing.T, rep *starpu.Report, failovers failoverCounter, dead ...int) {
	t.Helper()
	if got := rep.SchedulerStats["failures"]; got != float64(len(dead)) {
		t.Errorf("failures stat = %g, want %d", got, len(dead))
	}
	want := failoverCounter{}
	for _, pu := range dead {
		want[pu] = 1
	}
	if len(failovers) != len(want) {
		t.Errorf("EvFailover per unit = %v, want %v", failovers, want)
	}
	for pu, n := range want {
		if failovers[pu] != n {
			t.Errorf("EvFailover per unit = %v, want %v", failovers, want)
		}
		if got := rep.Resilience[pu].Failovers; got != 1 {
			t.Errorf("Resilience[%d].Failovers = %d, want 1", pu, got)
		}
	}
}

func TestFailureObservation(t *testing.T) {
	app := apps.NewMatMul(apps.MatMulConfig{N: obsUnits})
	base, failovers := runObserved(t, starpu.NewSimSession(obsCluster(), app, starpu.SimConfig{}))
	checkObserved(t, base, failovers)
	// Midway through the execution phase, after the first distribution.
	mid := (base.Distributions[0].Time + base.Makespan) / 2

	t.Run("scheduled-kill", func(t *testing.T) {
		clu := obsCluster()
		sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
		dev := clu.PUs()[obsPU].Dev
		if err := sess.ScheduleAt(mid, func() { dev.SetSpeedFactor(0) }); err != nil {
			t.Fatal(err)
		}
		rep, failovers := runObserved(t, sess)
		checkObserved(t, rep, failovers, obsPU)
		for _, r := range rep.Records {
			if r.PU == obsPU && r.SubmitTime > mid {
				t.Fatalf("block submitted to the dead unit at t=%g, after its death at t=%g", r.SubmitTime, mid)
			}
		}
	})

	t.Run("dead-at-start", func(t *testing.T) {
		clu := obsCluster()
		clu.PUs()[obsPU].Dev.SetSpeedFactor(0)
		// Start hands every unit a probe block, the dead one included; the
		// retry policy moves that block to a survivor.
		sess := starpu.NewSimSession(clu, app, starpu.SimConfig{Retry: starpu.DefaultRetryPolicy()})
		var fits fitPasses
		rep, failovers := runObserved(t, sess, &fits)
		checkObserved(t, rep, failovers, obsPU)
		// The dead unit never gets two samples; PLB-HeC must fit and solve
		// over the survivors rather than probe until the data runs out.
		if fits.n < 1 {
			t.Error("no curve-fitting pass succeeded")
		}
		if got := rep.SchedulerStats["solves"]; got < 1 {
			t.Errorf("solves stat = %g, want at least 1", got)
		}
		for _, r := range rep.Records {
			if r.PU == obsPU {
				t.Fatalf("record completed on the unit dead from the start: %+v", r)
			}
		}
	})

	t.Run("flap-between-completions", func(t *testing.T) {
		clu := obsCluster()
		sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
		dev := clu.PUs()[obsPU].Dev
		// Simultaneous events fire in scheduling order, and every completion
		// is scheduled after these two, so none runs between them.
		if err := sess.ScheduleAt(mid, func() { dev.SetSpeedFactor(0) }); err != nil {
			t.Fatal(err)
		}
		if err := sess.ScheduleAt(mid, func() { dev.SetSpeedFactor(1) }); err != nil {
			t.Fatal(err)
		}
		epoch := device.FailureEpoch()
		rep, failovers := runObserved(t, sess)
		if device.FailureEpoch() == epoch {
			t.Fatal("the kill did not move the failure epoch")
		}
		// No completion saw the unit down, so the run must be the
		// fault-free one, decision for decision.
		checkObserved(t, rep, failovers)
		if !reflect.DeepEqual(rep.Records, base.Records) {
			t.Error("a failure no completion observed changed the run")
		}
	})
}

// flipKernel executes a live run's units, counting executions per unit.
// The block that brings the executed total past trigger closes fire and
// returns only once flipped is closed, so the flip happens before the
// master sees that block's completion.
type flipKernel struct {
	hits    []int32
	done    atomic.Int64
	trigger int64
	once    sync.Once
	fire    chan struct{}
	flipped chan struct{}
}

func (k *flipKernel) Execute(lo, hi int64) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&k.hits[i], 1)
	}
	if k.done.Add(hi-lo) >= k.trigger {
		k.once.Do(func() {
			close(k.fire)
			<-k.flipped
		})
	}
}

// TestFailureObservationLive: on the live engine another goroutine kills a
// worker's device mid-run; run it under -race.
func TestFailureObservationLive(t *testing.T) {
	const units = 1 << 16
	workers := make([]starpu.LiveWorkerSpec, 4*obsNodes)
	for i := range workers {
		workers[i].Name = fmt.Sprintf("w%d", i)
	}
	k := &flipKernel{
		hits: make([]int32, units), trigger: units / 4,
		fire: make(chan struct{}), flipped: make(chan struct{}),
	}
	sess := starpu.NewLiveSession(k, starpu.LiveConfig{
		Workers: workers, TotalUnits: units, AppName: "flip",
		Retry: starpu.DefaultRetryPolicy(),
	})
	victim := sess.PUs()[obsPU].Dev
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-k.fire:
			victim.SetSpeedFactor(0)
			close(k.flipped)
		case <-stop:
		}
	}()
	defer wg.Wait()
	defer close(stop)
	rep, failovers := runObserved(t, sess)
	checkObserved(t, rep, failovers, obsPU)
	for i, h := range k.hits {
		if h != 1 {
			t.Fatalf("unit %d executed %d times", i, h)
		}
	}
}
