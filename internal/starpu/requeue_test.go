package starpu

import (
	"errors"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/telemetry"
)

// Satellite coverage for the runtime requeue path: a device killed while
// its block is mid-transfer vs. mid-compute, on both engines, with the
// Report counters and the plbhec_* metrics agreeing.

// checkExactlyOnce asserts the record stream covers [0, total) exactly once.
func checkExactlyOnce(t *testing.T, recs []TaskRecord, total int64) {
	t.Helper()
	covered := make([]int, total)
	for _, r := range recs {
		if r.Lo < 0 || r.Hi > total || r.Lo >= r.Hi {
			t.Fatalf("bad range [%d,%d)", r.Lo, r.Hi)
		}
		for i := r.Lo; i < r.Hi; i++ {
			covered[i]++
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("unit %d processed %d times", i, c)
		}
	}
}

// checkMetricsAgree asserts the Report's resilience counters match the
// metrics the telemetry sink accumulated.
func checkMetricsAgree(t *testing.T, rep *Report, reg *telemetry.Registry) {
	t.Helper()
	var failovers, requeues, recoveries float64
	for _, r := range rep.Resilience {
		failovers += float64(r.Failovers)
		requeues += float64(r.Requeues)
		recoveries += float64(r.Recoveries)
	}
	for _, c := range []struct {
		name string
		want float64
	}{
		{"plbhec_failovers_total", failovers},
		{"plbhec_requeues_total", requeues},
		{"plbhec_recoveries_total", recoveries},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %g, Report says %g", c.name, got, c.want)
		}
	}
}

// simWithRetry builds an MM sim session with telemetry and a retry policy.
func simWithRetry(n int64) (*Session, *cluster.Cluster, *telemetry.Telemetry) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: n})
	sess := NewSimSession(clu, app, SimConfig{Retry: true})
	tel := telemetry.New()
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), []string{"A/cpu", "A/gpu", "B/cpu", "B/gpu"}))
	sess.AttachTelemetry(tel)
	return sess, clu, tel
}

// pilotRecordOnPU runs the same deterministic scenario without faults and
// returns the idx-th record on pu, so fault times can be placed inside a
// known block's transfer or compute window.
func pilotRecordOnPU(t *testing.T, n int64, pu, idx int) TaskRecord {
	t.Helper()
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: n})
	rep, err := NewSimSession(clu, app, SimConfig{}).Run(&fixedScheduler{block: float64(n) / 32})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, r := range rep.Records {
		if r.PU == pu {
			if seen == idx {
				return r
			}
			seen++
		}
	}
	t.Fatalf("pilot produced fewer than %d records on PU %d", idx+1, pu)
	return TaskRecord{}
}

// runSimKillAt kills targetPU at failAt (mid-whatever the caller chose) and
// returns the completed report and registry.
func runSimKillAt(t *testing.T, n int64, targetPU int, failAt float64) (*Report, *telemetry.Telemetry) {
	t.Helper()
	sess, clu, tel := simWithRetry(n)
	dev := clu.PUs()[targetPU].Dev
	if err := sess.ScheduleAt(failAt, func() {
		dev.SetSpeedFactor(0)
		sess.DeviceStateChanged(targetPU)
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(&fixedScheduler{block: float64(n) / 32})
	if err != nil {
		t.Fatalf("run with failure at t=%g: %v", failAt, err)
	}
	return rep, tel
}

func assertKillRecovered(t *testing.T, rep *Report, tel *telemetry.Telemetry, n int64, targetPU int, failAt float64) {
	t.Helper()
	checkExactlyOnce(t, rep.Records, n)
	res := rep.Resilience[targetPU]
	if res.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", res.Failovers)
	}
	if res.Requeues < 1 {
		t.Errorf("Requeues = %d, want >= 1", res.Requeues)
	}
	// No kernel may run on the dead unit past the failure: blocks that
	// would have, were aborted and requeued.
	for _, r := range rep.Records {
		if r.PU == targetPU && r.ExecEnd > failAt {
			t.Errorf("record on dead PU %d ends at %g, after death at %g", targetPU, r.ExecEnd, failAt)
		}
	}
	checkMetricsAgree(t, rep, tel.Registry())
}

// TestRequeueMidComputeSim: the device dies while its block's kernel is
// executing; the block is aborted and finishes elsewhere.
func TestRequeueMidComputeSim(t *testing.T) {
	const n, pu = 2048, 3
	r := pilotRecordOnPU(t, n, pu, 1)
	failAt := (r.ExecStart + r.ExecEnd) / 2
	if !(failAt > r.ExecStart && failAt < r.ExecEnd) {
		t.Fatalf("bad pilot window: %+v", r)
	}
	rep, tel := runSimKillAt(t, n, pu, failAt)
	assertKillRecovered(t, rep, tel, n, pu, failAt)
}

// TestRequeueMidTransferSim: the device dies while its block's data is
// still on the wire; the block never starts executing there.
func TestRequeueMidTransferSim(t *testing.T) {
	const n, pu = 2048, 3
	r := pilotRecordOnPU(t, n, pu, 1)
	failAt := (r.TransferStart + r.TransferEnd) / 2
	if !(failAt > r.TransferStart && failAt < r.TransferEnd) {
		t.Fatalf("transfer window empty in pilot: %+v", r)
	}
	rep, tel := runSimKillAt(t, n, pu, failAt)
	assertKillRecovered(t, rep, tel, n, pu, failAt)
}

// TestRequeueLivePickup: a live worker whose device is failed bounces every
// block it is handed; the blocks complete on the surviving workers and the
// counters agree with the sim engine's for the same kind of death.
func TestRequeueLivePickup(t *testing.T) {
	const units = 300
	k := &countingKernel{hits: make([]int32, units)}
	sess := NewLiveSession(k, LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}, {Name: "w2"}},
		TotalUnits: units,
		AppName:    "counting",
		Retry:      true,
	})
	tel := telemetry.New()
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), []string{"w0/worker", "w1/worker", "w2/worker"}))
	sess.AttachTelemetry(tel)
	sess.PUs()[1].Dev.SetSpeedFactor(0)
	rep, err := sess.Run(&fixedScheduler{block: 50})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, units)
	for i, h := range k.hits {
		if h != 1 {
			t.Fatalf("unit %d executed %d times", i, h)
		}
	}
	res := rep.Resilience[1]
	if res.Failovers != 1 {
		t.Errorf("Failovers = %d, want 1", res.Failovers)
	}
	if res.Requeues < 1 {
		t.Errorf("Requeues = %d, want >= 1", res.Requeues)
	}
	for _, r := range rep.Records {
		if r.PU == 1 {
			t.Errorf("record completed on the dead worker: %+v", r)
		}
	}
	checkMetricsAgree(t, rep, tel.Registry())
}

// TestRequeueLiveMidRunKill: the device is killed from the scheduler
// callback (the driving goroutine) while blocks are queued on its worker;
// the queued blocks bounce at pickup.
func TestRequeueLiveMidRunKill(t *testing.T) {
	const units = 400
	k := &countingKernel{hits: make([]int32, units)}
	sess := NewLiveSession(k, LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}},
		TotalUnits: units,
		AppName:    "counting",
		Retry:      true,
	})
	killed := false
	sched := &callbackScheduler{
		start: func(s *Session) {
			// Queue several blocks on each worker up front.
			for i := 0; i < 4; i++ {
				for _, pu := range s.PUs() {
					if s.Remaining() > 0 {
						s.Assign(pu, 30)
					}
				}
			}
		},
		finished: func(s *Session, rec TaskRecord) {
			if !killed {
				killed = true
				s.PUs()[1].Dev.SetSpeedFactor(0)
			}
			if s.Remaining() > 0 {
				s.Assign(s.PUs()[0], 30)
			}
		},
	}
	rep, err := sess.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, units)
	for i, h := range k.hits {
		if h != 1 {
			t.Fatalf("unit %d executed %d times", i, h)
		}
	}
}

// TestRequeueExhaustionSim: when every unit is dead there is no requeue
// target and the run fails with ErrFailedDevice instead of hanging.
func TestRequeueExhaustionSim(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 1024})
	sess := NewSimSession(clu, app, SimConfig{Retry: true})
	kill := func() {
		for i, pu := range clu.PUs() {
			pu.Dev.SetSpeedFactor(0)
			sess.DeviceStateChanged(i)
		}
	}
	if err := sess.ScheduleAt(0.001, kill); err != nil {
		t.Fatal(err)
	}
	_, err := sess.Run(&fixedScheduler{block: 128})
	if !errors.Is(err, ErrFailedDevice) {
		t.Fatalf("want ErrFailedDevice, got %v", err)
	}
}

// TestRequeueExhaustionLive: both live workers dead → the bounce loop must
// settle the in-flight account and terminate with ErrFailedDevice.
func TestRequeueExhaustionLive(t *testing.T) {
	const units = 100
	k := &countingKernel{hits: make([]int32, units)}
	sess := NewLiveSession(k, LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}},
		TotalUnits: units,
		AppName:    "counting",
		Retry:      true,
	})
	for _, pu := range sess.PUs() {
		pu.Dev.SetSpeedFactor(0)
	}
	_, err := sess.Run(&fixedScheduler{block: 25})
	if !errors.Is(err, ErrFailedDevice) {
		t.Fatalf("want ErrFailedDevice, got %v", err)
	}
}

// TestRequeueBlacklist: a unit that keeps failing launches is blacklisted
// after the policy's threshold, and the report says so.
func TestRequeueBlacklist(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 512})
	sess := NewSimSession(clu, app, SimConfig{Retry: true})
	clu.PUs()[1].Dev.SetSpeedFactor(0) // the GPU is dead from the start
	// A scheduler that stubbornly routes every next block to the dead GPU:
	// each launch fails, requeues onto the CPU, and charges the GPU with
	// one more consecutive failure.
	sched := &callbackScheduler{
		start: func(s *Session) { s.Assign(s.PUs()[0], 64) },
		finished: func(s *Session, rec TaskRecord) {
			if s.Remaining() > 0 {
				s.Assign(s.PUs()[1], 64)
			}
		},
	}
	rep, err := sess.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, 512)
	if !sess.Blacklisted(1) {
		t.Error("repeatedly failing unit not blacklisted")
	}
	res := rep.Resilience[1]
	if !res.Blacklisted {
		t.Errorf("Report.Resilience not marked blacklisted: %+v", res)
	}
	if res.Failures < 2 {
		t.Errorf("Failures = %d, want >= 2", res.Failures)
	}
}

// TestRecoveryRestoresTarget: a brown-out that ends clears the blacklist
// and counts a recovery.
func TestRecoveryRestoresTarget(t *testing.T) {
	// Pilot the fault-free run so the brown-out window lands mid-run.
	r := pilotRecordOnPU(t, 2048, 3, 0)
	failAt := (r.ExecStart + r.ExecEnd) / 2
	sess, clu, tel := simWithRetry(2048)
	dev := clu.PUs()[3].Dev
	if err := sess.ScheduleAt(failAt, func() {
		dev.SetSpeedFactor(0)
		sess.DeviceStateChanged(3)
	}); err != nil {
		t.Fatal(err)
	}
	if err := sess.ScheduleAt(2*failAt, func() {
		dev.SetSpeedFactor(1)
		sess.DeviceStateChanged(3)
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(&fixedScheduler{block: 256})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, 2048)
	res := rep.Resilience[3]
	if res.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", res.Recoveries)
	}
	if res.Blacklisted || sess.Blacklisted(3) {
		t.Error("recovered unit left blacklisted")
	}
	checkMetricsAgree(t, rep, tel.Registry())
}
