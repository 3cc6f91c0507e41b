package starpu

import (
	"errors"
	"math"
	"testing"
	"time"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/telemetry"
)

// Chaos coverage for the heartbeat/health subsystem: false suspicions under
// heartbeat loss and partitions (with late results fenced, exactly-once),
// detection of real deaths at heartbeat latency, rapid brown-out flapping,
// and the blacklist-lift accounting — on both engines, with the Report
// counters and the plbhec_* metrics agreeing.

// checkHealthMetricsAgree asserts the Report's health counters match the
// metrics the telemetry sink accumulated.
func checkHealthMetricsAgree(t *testing.T, rep *Report, reg *telemetry.Registry) {
	t.Helper()
	var susp, falseS, rejoins, fenced, lifts float64
	for _, r := range rep.Resilience {
		susp += float64(r.Suspicions)
		falseS += float64(r.FalseSuspects)
		rejoins += float64(r.Rejoins)
		fenced += float64(r.FencedCompletions)
		lifts += float64(r.BlacklistLifts)
	}
	for _, c := range []struct {
		name string
		want float64
	}{
		{"plbhec_suspicions_total", susp},
		{"plbhec_false_suspicions_total", falseS},
		{"plbhec_rejoins_total", rejoins},
		{"plbhec_fenced_completions_total", fenced},
		{"plbhec_blacklist_lifts_total", lifts},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %g, Report says %g", c.name, got, c.want)
		}
	}
}

// simWithHealth builds an MM sim session with telemetry under the given
// health policy (retry defaults implicitly — health implies retry).
func simWithHealth(n int64, pol *HealthPolicy) (*Session, *cluster.Cluster, *telemetry.Telemetry) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: n})
	sess := NewSimSession(clu, app, SimConfig{Health: pol})
	tel := telemetry.New()
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), []string{"A/cpu", "A/gpu", "B/cpu", "B/gpu"}))
	sess.AttachTelemetry(tel)
	return sess, clu, tel
}

// TestHealthHeartbeatLossFencesSim: a unit's heartbeat path fails while the
// unit keeps computing — the pure false-positive stimulus. The detector
// suspects it, its in-flight block is reassigned under a fresh token, the
// healthy unit's late result is fenced (exactly-once), and when heartbeats
// resume the unit rejoins.
func TestHealthHeartbeatLossFencesSim(t *testing.T) {
	const n, pu = 2048, 3
	r := pilotRecordOnPU(t, n, pu, 1)
	window := r.ExecEnd - r.ExecStart
	hb := window / 50
	lossAt := r.ExecStart + 5*hb
	healAt := lossAt + 20*hb
	sess, _, tel := simWithHealth(n, &HealthPolicy{HeartbeatSeconds: hb})
	if err := sess.ScheduleAt(lossAt, func() {
		sess.InjectHeartbeatLoss(pu, healAt)
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(&fixedScheduler{block: float64(n) / 32})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, n)
	res := rep.Resilience[pu]
	if res.Suspicions < 1 {
		t.Errorf("Suspicions = %d, want >= 1", res.Suspicions)
	}
	if res.FalseSuspects < 1 {
		t.Errorf("FalseSuspects = %d, want >= 1 (the unit never died)", res.FalseSuspects)
	}
	if res.FencedCompletions < 1 {
		t.Errorf("FencedCompletions = %d, want >= 1 (the stale result must be fenced)", res.FencedCompletions)
	}
	if res.Rejoins < 1 {
		t.Errorf("Rejoins = %d, want >= 1 (heartbeats resumed)", res.Rejoins)
	}
	if res.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0 (no physical death)", res.Failovers)
	}
	checkHealthMetricsAgree(t, rep, tel.Registry())
}

// TestHealthPartitionHealRejoinSim: a partition cuts a healthy unit off —
// heartbeats stop and its finished result is held at the boundary. The
// detector suspects it, the block is reassigned and delivered by the fresh
// copy; at heal the held stale result arrives and is fenced, and the unit
// rejoins on its first heartbeat through.
func TestHealthPartitionHealRejoinSim(t *testing.T) {
	const n, pu = 2048, 3
	r := pilotRecordOnPU(t, n, pu, 1)
	window := r.ExecEnd - r.ExecStart
	hb := window / 50
	cutAt := r.ExecStart + 5*hb
	healAt := r.ExecEnd + 10*hb // the held completion outlives the partition
	sess, _, tel := simWithHealth(n, &HealthPolicy{HeartbeatSeconds: hb})
	if err := sess.ScheduleAt(cutAt, func() {
		sess.InjectPartition(pu, healAt)
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(&fixedScheduler{block: float64(n) / 32})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, n)
	res := rep.Resilience[pu]
	if res.FalseSuspects < 1 {
		t.Errorf("FalseSuspects = %d, want >= 1 (partitioned, not dead)", res.FalseSuspects)
	}
	if res.FencedCompletions < 1 {
		t.Errorf("FencedCompletions = %d, want >= 1 (the held result must be fenced at heal)", res.FencedCompletions)
	}
	if res.Rejoins < 1 {
		t.Errorf("Rejoins = %d, want >= 1 (partition healed)", res.Rejoins)
	}
	checkHealthMetricsAgree(t, rep, tel.Registry())
}

// TestHealthDetectsRealDeathSim: under a HealthPolicy the master learns of a
// death only from missing heartbeats — the block moves at detection latency,
// not at the oracle instant, and that latency is accounted.
func TestHealthDetectsRealDeathSim(t *testing.T) {
	const n, pu = 2048, 3
	r := pilotRecordOnPU(t, n, pu, 1)
	window := r.ExecEnd - r.ExecStart
	hb := window / 50
	failAt := (r.ExecStart + r.ExecEnd) / 2
	sess, clu, tel := simWithHealth(n, &HealthPolicy{
		HeartbeatSeconds: hb, Detector: "deadline", TimeoutSeconds: 3 * hb,
	})
	dev := clu.PUs()[pu].Dev
	if err := sess.ScheduleAt(failAt, func() {
		dev.SetSpeedFactor(0)
		sess.DeviceStateChanged(pu)
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(&fixedScheduler{block: float64(n) / 32})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, n)
	res := rep.Resilience[pu]
	if res.Suspicions != 1 {
		t.Errorf("Suspicions = %d, want 1", res.Suspicions)
	}
	if res.FalseSuspects != 0 {
		t.Errorf("FalseSuspects = %d, want 0 (the unit really died)", res.FalseSuspects)
	}
	if !(res.DetectionSeconds > 0) {
		t.Errorf("DetectionSeconds = %g, want > 0 (heartbeat detection is not free)", res.DetectionSeconds)
	}
	if res.FencedCompletions != 0 {
		t.Errorf("FencedCompletions = %d, want 0 (dead copies never deliver)", res.FencedCompletions)
	}
	for _, rec := range rep.Records {
		if rec.PU == pu && rec.ExecEnd > failAt {
			t.Errorf("record on dead PU %d ends at %g, after death at %g", pu, rec.ExecEnd, failAt)
		}
	}
	checkHealthMetricsAgree(t, rep, tel.Registry())
}

// TestHealthFlappingBrownouts: rapid down/up cycles shorter than the
// detector's suspicion latency. Every flap counts a failover and a recovery,
// lost blocks are recovered promptly by the up-transition (not wedged until
// the detector notices), the unit ends unblacklisted, and every counter the
// report carries agrees with the metrics registry.
func TestHealthFlappingBrownouts(t *testing.T) {
	const n, pu = 2048, 3
	const flaps = 3
	r := pilotRecordOnPU(t, n, pu, 1)
	window := r.ExecEnd - r.ExecStart
	hb := window / 50
	sess, clu, tel := simWithHealth(n, &HealthPolicy{HeartbeatSeconds: hb})
	dev := clu.PUs()[pu].Dev
	for i := 0; i < flaps; i++ {
		down := r.ExecStart + float64(i)*10*hb
		up := down + hb
		if err := sess.ScheduleAt(down, func() {
			dev.SetSpeedFactor(0)
			sess.DeviceStateChanged(pu)
		}); err != nil {
			t.Fatal(err)
		}
		if err := sess.ScheduleAt(up, func() {
			dev.SetSpeedFactor(1)
			sess.DeviceStateChanged(pu)
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sess.Run(&fixedScheduler{block: float64(n) / 32})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, n)
	res := rep.Resilience[pu]
	if res.Failovers != flaps {
		t.Errorf("Failovers = %d, want %d", res.Failovers, flaps)
	}
	if res.Recoveries != flaps {
		t.Errorf("Recoveries = %d, want %d", res.Recoveries, flaps)
	}
	if res.Requeues < 1 {
		t.Errorf("Requeues = %d, want >= 1 (the in-flight block died with the first flap)", res.Requeues)
	}
	if res.Blacklisted || sess.Blacklisted(pu) {
		t.Error("flapping unit left blacklisted after its recoveries")
	}
	checkMetricsAgree(t, rep, tel.Registry())
	checkHealthMetricsAgree(t, rep, tel.Registry())
}

// TestHealthBlacklistLiftCounted: a unit blacklisted for repeated failures
// recovers mid-run — the lift is now an observable event and counter, where
// the bit used to be cleared silently.
func TestHealthBlacklistLiftCounted(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 512})
	sess := NewSimSession(clu, app, SimConfig{Retry: true})
	tel := telemetry.New()
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), []string{"A/cpu", "A/gpu"}))
	sess.AttachTelemetry(tel)
	gpu := clu.PUs()[1].Dev
	gpu.SetSpeedFactor(0) // dead from the start
	healed := false
	// Stubbornly route blocks to the dead GPU until it is blacklisted, then
	// heal it and observe the lift.
	sched := &callbackScheduler{
		start: func(s *Session) { s.Assign(s.PUs()[0], 64) },
		finished: func(s *Session, rec TaskRecord) {
			if s.Blacklisted(1) && !healed {
				healed = true
				gpu.SetSpeedFactor(1)
				s.DeviceStateChanged(1)
			}
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
	if !healed {
		t.Fatal("the GPU was never blacklisted, so the lift path never ran")
	}
	res := rep.Resilience[1]
	if res.BlacklistLifts != 1 {
		t.Errorf("BlacklistLifts = %d, want 1", res.BlacklistLifts)
	}
	if res.Blacklisted || sess.Blacklisted(1) {
		t.Error("healed unit left blacklisted")
	}
	checkHealthMetricsAgree(t, rep, tel.Registry())
}

// sleepKernel burns real wall-clock time per unit, so live blocks are long
// enough for suspicion to land while a copy is still executing.
type sleepKernel struct{ perUnit time.Duration }

func (k sleepKernel) Execute(lo, hi int64) { time.Sleep(time.Duration(hi-lo) * k.perUnit) }

// liveHealthPolicy is deliberately coarse for wall-clock tests: 5 ms beats
// with a 50 ms deadline, so scheduler-goroutine hiccups on a loaded CI box
// cannot plausibly false-suspect a healthy worker.
func liveHealthPolicy() *HealthPolicy {
	return &HealthPolicy{HeartbeatSeconds: 0.005, Detector: "deadline", TimeoutSeconds: 0.05}
}

// TestHealthLiveDetectsDeadWorker: a live worker dead from the start emits
// no heartbeats, and the deadline detector suspects it. Its block bounces
// at pickup and, as on the simulator for a launch onto a dead unit, is
// requeued at once and completed by the survivors. The kernel sleeps, so
// the run outlasts the 50 ms detection timeout.
func TestHealthLiveDetectsDeadWorker(t *testing.T) {
	const units = 300
	k := &countingSleepKernel{hits: make([]int32, units), perUnit: time.Millisecond}
	sess := NewLiveSession(k, LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}, {Name: "w2"}},
		TotalUnits: units,
		AppName:    "counting",
		Health:     liveHealthPolicy(),
	})
	tel := telemetry.New()
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), []string{"w0/worker", "w1/worker", "w2/worker"}))
	// The block bounced off the dead worker is requeued before the
	// detector rules on the worker, not parked until it does.
	requeuedAt, suspectedAt := -1.0, -1.0
	tel.Attach(sinkFunc(func(ev telemetry.Event) {
		switch {
		case ev.PU != 1:
		case ev.Kind == telemetry.EvRequeue && requeuedAt < 0:
			requeuedAt = ev.Time
		case ev.Kind == telemetry.EvSuspect:
			suspectedAt = ev.Time
		}
	}))
	sess.AttachTelemetry(tel)
	sess.PUs()[1].Dev.SetSpeedFactor(0)
	rep, err := sess.Run(&fixedScheduler{block: 50})
	if err != nil {
		t.Fatal(err)
	}
	if requeuedAt < 0 || suspectedAt < 0 || requeuedAt >= suspectedAt {
		t.Errorf("bounced block requeued at %g, worker suspected at %g: want the requeue first",
			requeuedAt, suspectedAt)
	}
	checkExactlyOnce(t, rep.Records, units)
	for i, h := range k.hits {
		if h != 1 {
			t.Fatalf("unit %d executed %d times", i, h)
		}
	}
	res := rep.Resilience[1]
	if res.Suspicions != 1 {
		t.Errorf("Suspicions = %d, want 1", res.Suspicions)
	}
	if res.FalseSuspects != 0 {
		t.Errorf("FalseSuspects = %d, want 0 (the worker really died)", res.FalseSuspects)
	}
	for _, r := range rep.Records {
		if r.PU == 1 {
			t.Errorf("record completed on the dead worker: %+v", r)
		}
	}
	checkHealthMetricsAgree(t, rep, tel.Registry())
}

// TestHealthLiveFalseSuspicionFences: a healthy-but-silent live worker (its
// heartbeat path is cut, its kernel keeps running) is falsely suspected; the
// block is reassigned and delivered by the fresh copy, and the silent
// worker's late completion is fenced — exactly-once over real goroutines.
func TestHealthLiveFalseSuspicionFences(t *testing.T) {
	const units = 100
	sess := NewLiveSession(sleepKernel{perUnit: time.Millisecond}, LiveConfig{
		Workers: []LiveWorkerSpec{
			{Name: "w0"}, {Name: "w1", Slowdown: 5}, {Name: "w2"},
		},
		TotalUnits: units,
		AppName:    "sleep",
		Health:     liveHealthPolicy(),
	})
	tel := telemetry.New()
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), []string{"w0/worker", "w1/worker", "w2/worker"}))
	sess.AttachTelemetry(tel)
	sess.InjectHeartbeatLoss(1, math.Inf(1))
	rep, err := sess.Run(&fixedScheduler{block: 20})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, units)
	res := rep.Resilience[1]
	if res.FalseSuspects != 1 {
		t.Errorf("FalseSuspects = %d, want 1 (the worker never died)", res.FalseSuspects)
	}
	if res.FencedCompletions != 1 {
		t.Errorf("FencedCompletions = %d, want 1 (the late result must be fenced)", res.FencedCompletions)
	}
	for _, r := range rep.Records {
		if r.PU == 1 {
			t.Errorf("record delivered from the fenced worker: %+v", r)
		}
	}
	checkHealthMetricsAgree(t, rep, tel.Registry())
}

// TestHealthLivePartitionHoldsCompletion: a live worker cut off by a finite
// partition finishes its block, but the result is held at the partition
// boundary, as on the simulator. The detector suspects the silent worker,
// the block is reassigned and delivered by the other worker, and when the
// partition heals the held result is fenced.
func TestHealthLivePartitionHoldsCompletion(t *testing.T) {
	const units = 10
	k := kernelFunc(func(lo, hi int64) { time.Sleep(20 * time.Millisecond) })
	sess := NewLiveSession(k, LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}},
		TotalUnits: units,
		AppName:    "sleep",
		Health:     liveHealthPolicy(),
	})
	sess.InjectPartition(1, 0.2)
	rep, err := sess.Run(&callbackScheduler{start: func(s *Session) { s.Assign(s.PUs()[1], units) }})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, units)
	if r := rep.Records[0]; r.PU != 0 {
		t.Errorf("block delivered from worker %d, want the reassigned copy on worker 0", r.PU)
	}
	res := rep.Resilience[1]
	if res.Suspicions != 1 || res.FalseSuspects != 1 {
		t.Errorf("Suspicions = %d, FalseSuspects = %d, want 1 and 1", res.Suspicions, res.FalseSuspects)
	}
	if res.FencedCompletions != 1 {
		t.Errorf("FencedCompletions = %d, want 1 (the held result must be fenced at the heal)", res.FencedCompletions)
	}
	checkSettled(t, sess)
}

// TestRevokeCopiesSettlesEachCopyOnce: a revoked copy stays in the copy
// table (running on, with a stale token) until its engine hands it back. If
// the lease is re-granted to the same unit after a rejoin and that unit is
// suspected again, the second revocation wave must settle only the new copy
// — the stale one was settled at the first revocation, and decrementing
// inflightPU for it again would skew load-based placement negative.
func TestRevokeCopiesSettlesEachCopyOnce(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 256})
	sess := NewSimSession(clu, app, SimConfig{Health: DefaultHealthPolicy()})
	const pu, seq = 0, 5
	stale := sess.newCopy(pu, seq, 0, 1, 0)
	stale.token = 1
	sess.inflightPU[pu] = 1
	if got := sess.revoke(pu, seq); got != 1 {
		t.Fatalf("first revocation detached %d copies, want 1", got)
	}
	if sess.inflightPU[pu] != 0 {
		t.Fatalf("inflightPU = %d after first revocation, want 0", sess.inflightPU[pu])
	}
	// The lease is re-granted to the unit and a fresh copy launches while the
	// stale copy is still in flight; a second suspicion revokes again.
	fresh := sess.newCopy(pu, seq, 0, 1, 0)
	fresh.token = 3
	sess.inflightPU[pu] = 1
	if got := sess.revoke(pu, seq); got != 1 {
		t.Fatalf("second revocation detached %d copies, want 1 (stale copy already settled)", got)
	}
	if sess.inflightPU[pu] != 0 {
		t.Fatalf("inflightPU = %d after second revocation, want 0 (double-settled)", sess.inflightPU[pu])
	}
	if stale.state != copyRevoked || fresh.state != copyRevoked {
		t.Fatal("both copies must be marked revoked")
	}
}

// TestHealthStandsDownAfterFailure: once the run fails, the heartbeat pump
// and the suspicion checks stop rescheduling, so the timer queue drains
// instead of keeping the run alive. On the simulator the primed queue must
// empty without a single suspicion; on the live engine a run whose every
// worker is dead must fail with ErrFailedDevice instead of waiting forever.
func TestHealthStandsDownAfterFailure(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 256})
	sess := NewSimSession(clu, app, SimConfig{Health: DefaultHealthPolicy()})
	e := sess.eng.(*simEngine)
	if e.eng.Pending() == 0 {
		t.Fatal("no heartbeat or suspicion timer armed on a healthy session")
	}
	sess.fail(ErrFailedDevice)
	e.eng.Run()
	if n := e.eng.Pending(); n != 0 {
		t.Fatalf("%d timers still queued after the run failed", n)
	}
	for i, r := range sess.resilience {
		if r.Suspicions != 0 {
			t.Errorf("unit %d suspected %d times after the run failed", i, r.Suspicions)
		}
	}

	k := &countingKernel{hits: make([]int32, 60)}
	live := NewLiveSession(k, LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}},
		TotalUnits: 60,
		Health:     liveHealthPolicy(),
	})
	for _, pu := range live.PUs() {
		pu.Dev.SetSpeedFactor(0)
	}
	if _, err := live.Run(&fixedScheduler{block: 20}); !errors.Is(err, ErrFailedDevice) {
		t.Fatalf("want ErrFailedDevice, got %v", err)
	}
}

// TestHealthPolicyNormalization: zero-value fields pick up the documented
// defaults; a nil policy stays nil (health off).
func TestHealthPolicyNormalization(t *testing.T) {
	var nilPol *HealthPolicy
	if nilPol.normalized() != nil {
		t.Fatal("nil policy must normalize to nil")
	}
	q := (&HealthPolicy{}).normalized()
	if q.HeartbeatSeconds != 0.05 || q.Detector != "phi" || q.PhiThreshold != 8 {
		t.Errorf("bad defaults: %+v", q)
	}
	if q.TimeoutSeconds != 3*q.HeartbeatSeconds {
		t.Errorf("bad defaults: %+v", q)
	}
	d := DefaultHealthPolicy().normalized()
	if *d != *DefaultHealthPolicy() {
		t.Errorf("DefaultHealthPolicy not fixed under normalization: %+v", d)
	}
}
