package starpu

import (
	"reflect"
	"testing"
	"time"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
)

// Coverage for the tail-tolerance layer: watchdog deadlines, speculative
// backup copies with first-completion-wins, the straggler soft blacklist,
// and the bit-for-bit legacy contract when the policy is attached but no
// fault ever trips a watchdog.

// stragglerPU is the unit the sim straggler scenario throttles: PU 1, the
// fast GPU that handles most of the fixed-block round-robin stream, so
// plenty of blocks launch after the slowdown.
const stragglerPU = 1

// runStragglerSim executes the canonical sim straggler scenario — the
// workhorse GPU drops to 2% speed once it has an observed baseline — under
// the given speculation policy (nil: watchdogs off).
func runStragglerSim(t *testing.T, n int64, spec *SpeculationPolicy) *Report {
	t.Helper()
	// Pilot the fault-free run so the slowdown lands after the target has
	// completed enough blocks for the Welford baseline to arm watchdogs.
	r := pilotRecordOnPU(t, n, stragglerPU, 3)
	slowAt := r.ExecEnd * 1.001

	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: n})
	sess := NewSimSession(clu, app, SimConfig{Retry: true, Spec: spec})
	dev := clu.PUs()[stragglerPU].Dev
	// 500x slowdown: the straggler's next block alone would dominate the
	// whole run, so makespan inflation is unambiguous without speculation.
	if err := sess.ScheduleAt(slowAt, func() { dev.SetSpeedFactor(0.002) }); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(&fixedScheduler{block: float64(n) / 32})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSpeculationSimStraggler: a mid-run straggler trips watchdogs, backup
// copies launch elsewhere, coverage stays exactly-once, and the race
// accounting balances (wins + wasted never exceeds launches — device-death
// settled races may resolve without either outcome).
func TestSpeculationSimStraggler(t *testing.T) {
	const n = 2048
	rep := runStragglerSim(t, n, DefaultSpeculationPolicy())
	checkExactlyOnce(t, rep.Records, n)

	var specs, wins, wasted int64
	for _, res := range rep.Resilience {
		specs += res.Speculations
		wins += res.SpecWins
		wasted += res.SpecWasted
	}
	if specs == 0 {
		t.Fatal("straggler tripped no watchdog: Speculations = 0")
	}
	if rep.Resilience[stragglerPU].Speculations == 0 {
		t.Errorf("speculations charged to %+v, not the straggler", rep.Resilience)
	}
	if wins+wasted > specs {
		t.Errorf("race accounting broken: wins %d + wasted %d > speculations %d", wins, wasted, specs)
	}
}

// TestSpeculationBoundsMakespan: with backup copies the straggler scenario
// finishes strictly faster than without — the whole point of the layer.
func TestSpeculationBoundsMakespan(t *testing.T) {
	const n = 2048
	base := runStragglerSim(t, n, nil)
	spec := runStragglerSim(t, n, DefaultSpeculationPolicy())
	if spec.Makespan >= base.Makespan {
		t.Errorf("speculation did not bound the straggler tail: %.4fs with vs %.4fs without",
			spec.Makespan, base.Makespan)
	}
}

// TestSpeculationSlowBlacklist: repeated expirations soft-blacklist the
// straggler, and the report says so.
func TestSpeculationSlowBlacklist(t *testing.T) {
	const n = 4096
	rep := runStragglerSim(t, n, &SpeculationPolicy{SlowAfter: 1})
	if rep.Resilience[stragglerPU].Speculations < 1 {
		t.Fatalf("no speculation on the straggler: %+v", rep.Resilience[stragglerPU])
	}
	if !rep.Resilience[stragglerPU].SlowBlacklisted {
		t.Errorf("straggler not soft-blacklisted after expirations: %+v", rep.Resilience[stragglerPU])
	}
}

// TestSpeculationFaultFreeInvariance: attaching the policy without any
// fault firing must leave the TaskRecord stream bit-for-bit identical to a
// nil-policy run — watchdogs that never expire are pure observation.
func TestSpeculationFaultFreeInvariance(t *testing.T) {
	run := func(spec *SpeculationPolicy) *Report {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
		app := apps.NewMatMul(apps.MatMulConfig{N: 2048})
		sess := NewSimSession(clu, app, SimConfig{Retry: true, Spec: spec})
		rep, err := sess.Run(&fixedScheduler{block: 64})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(nil)
	spec := run(DefaultSpeculationPolicy())
	for pu, res := range spec.Resilience {
		if res.Speculations != 0 {
			t.Fatalf("fault-free run speculated on PU %d: %+v", pu, res)
		}
	}
	if !reflect.DeepEqual(base.Records, spec.Records) {
		t.Error("fault-free record stream changed by an idle speculation policy")
	}
}

// TestSpeculationLiveBackupWins: a live worker throttled far past its
// predicted time loses the race to the backup copy; the winning records
// still cover every unit exactly once while the kernel — which must be
// idempotent under speculation — may observe the duplicate execution.
func TestSpeculationLiveBackupWins(t *testing.T) {
	const units = 60
	k := kernelFunc(func(lo, hi int64) { time.Sleep(time.Millisecond) })
	sess := NewLiveSession(k, LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "fast"}, {Name: "slow", Slowdown: 200}},
		TotalUnits: units,
		AppName:    "sleepy",
		Retry:      true,
		Spec: &SpeculationPolicy{
			DeadlineMultiplier: 2, MinDeadlineSeconds: 0.01,
			MinObservations: 1, SlowAfter: 2,
		},
	})
	sess.SetPredictor(func(pu int, u float64) float64 { return 0.02 })
	rep, err := sess.Run(&fixedScheduler{block: 20})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, units)
	res := rep.Resilience[1]
	if res.Speculations < 1 {
		t.Fatalf("throttled worker tripped no watchdog: %+v", rep.Resilience)
	}
	if res.SpecWins < 1 {
		t.Errorf("backup copy never won against a 200x-throttled worker: %+v", res)
	}
}

// TestSpeculationLiveRequeuedCopyArmed: a requeued copy gets a watchdog on
// the live engine, as on the simulator. The only block bounces off a dead
// worker and is requeued onto a 30x-throttled one; its watchdog expires
// there and a backup on the fast worker wins the race.
func TestSpeculationLiveRequeuedCopyArmed(t *testing.T) {
	const units = 20
	k := kernelFunc(func(lo, hi int64) { time.Sleep(2 * time.Millisecond) })
	sess := NewLiveSession(k, LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "dead"}, {Name: "slow", Slowdown: 30}, {Name: "fast"}},
		TotalUnits: units,
		AppName:    "sleepy",
		Retry:      true,
		Spec: &SpeculationPolicy{
			DeadlineMultiplier: 2, MinDeadlineSeconds: 0.005,
			MinObservations: 1, SlowAfter: 2,
		},
	})
	sess.SetPredictor(func(pu int, u float64) float64 { return 0.002 })
	sess.PUs()[0].Dev.SetSpeedFactor(0)
	rep, err := sess.Run(&callbackScheduler{start: func(s *Session) { s.Assign(s.PUs()[0], units) }})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, units)
	if res := rep.Resilience[0]; res.Requeues != 1 {
		t.Fatalf("Requeues = %d on the dead worker, want 1", res.Requeues)
	}
	if res := rep.Resilience[1]; res.Speculations != 1 || res.SpecWins != 1 {
		t.Errorf("requeued copy on the slow worker: %+v, want one speculation won by the backup", res)
	}
	if r := rep.Records[0]; r.PU != 2 {
		t.Errorf("block delivered from worker %d, want the backup on worker 2", r.PU)
	}
}

// TestSpeculationPolicyNormalization: garbage policy values fall back to
// usable defaults instead of arming instant or never-firing watchdogs.
func TestSpeculationPolicyNormalization(t *testing.T) {
	for _, bad := range []SpeculationPolicy{
		{},
		{DeadlineMultiplier: -4, MinDeadlineSeconds: -1, MinObservations: -2, SlowAfter: -3},
		{DeadlineMultiplier: 0.5, MinDeadlineSeconds: 1e300},
	} {
		q := (&bad).normalized()
		def := DefaultSpeculationPolicy()
		if *q != *def {
			t.Errorf("normalized(%+v) = %+v, want defaults %+v", bad, *q, *def)
		}
	}
	custom := &SpeculationPolicy{DeadlineMultiplier: 5, MinDeadlineSeconds: 2, MinObservations: 7, SlowAfter: 4}
	if q := custom.normalized(); *q != *custom {
		t.Errorf("valid policy rewritten: %+v -> %+v", *custom, *q)
	}
	if (*SpeculationPolicy)(nil).normalized() != nil {
		t.Error("nil policy must normalize to nil (legacy bit-for-bit contract)")
	}
}
