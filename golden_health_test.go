package plbhec_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/expt"
	"plbhec/internal/fault"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// These tests are the health subsystem's two-sided determinism contract.
// Side one: a nil HealthPolicy — the default — must be a true no-op, so the
// golden scenarios run with an explicit Health: nil and a full metrics sink
// attached must reproduce the exact pinned hashes of the bare runs, and the
// health counters must all read zero. Side two: with a HealthPolicy attached
// the heartbeat/suspicion/fencing machinery must itself be bit-deterministic,
// pinned by its own golden hash and invariant under runner parallelism.

// goldenHealthSweepHash pins the failure-detection chaos cell below: the
// final repetition's TaskRecord stream plus the summed health accounting
// (suspicions, false suspicions, rejoins, fenced completions, requeues,
// detection lag) on amd64. Any change to heartbeat scheduling, detector
// math, lease fencing, or requeue ordering shows up here.
const goldenHealthSweepHash = "86f96e467d83cb4a"

// withRunMetrics attaches a telemetry hub with a RunMetrics sink to the
// session and returns the registry for counter assertions.
func withRunMetrics(sess *starpu.Session, clu *cluster.Cluster) *telemetry.Registry {
	var names []string
	for _, pu := range clu.PUs() {
		names = append(names, pu.Name())
	}
	tel := telemetry.New()
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), names))
	sess.AttachTelemetry(tel)
	return tel.Registry()
}

// checkHealthCountersZero asserts every health metric is zero — what a run
// without a HealthPolicy must report.
func checkHealthCountersZero(t *testing.T, reg *telemetry.Registry, label string) {
	t.Helper()
	for _, name := range []string{
		"plbhec_suspicions_total",
		"plbhec_false_suspicions_total",
		"plbhec_rejoins_total",
		"plbhec_fenced_completions_total",
		"plbhec_blacklist_lifts_total",
	} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s: %s = %g without a HealthPolicy, want 0", label, name, got)
		}
	}
}

// TestGoldenQuickSweepWithNilHealth: the quick sweep's pinned hash is
// unchanged with an explicit nil HealthPolicy and a metrics sink attached,
// and the health counters stay zero.
func TestGoldenQuickSweepWithNilHealth(t *testing.T) {
	h := fnv.New64a()
	for _, c := range goldenCells() {
		for seed := int64(0); seed < 2; seed++ {
			app := expt.MakeApp(c.Kind, c.Size)
			clu := cluster.TableI(cluster.Config{
				Machines: 4, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma,
			})
			s, err := expt.NewScheduler(c.Sched, expt.InitialBlock(c.Kind, c.Size, 4))
			if err != nil {
				t.Fatal(err)
			}
			sess := starpu.NewSimSession(clu, app, starpu.SimConfig{Health: nil})
			reg := withRunMetrics(sess, clu)
			rep, err := sess.Run(s)
			if err != nil {
				t.Fatalf("%s-%d/%s seed %d: %v", c.Kind, c.Size, c.Sched, seed, err)
			}
			checkHealthCountersZero(t, reg, fmt.Sprintf("%s-%d/%s", c.Kind, c.Size, c.Sched))
			hashRecords(h, rep.Records)
		}
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenQuickSweepHash {
		t.Fatalf("nil HealthPolicy perturbed the quick sweep: hash %s, golden %s",
			got, goldenQuickSweepHash)
	}
}

// TestGoldenChaosWithNilHealth: the chaos run — faults, requeues and all —
// hashes identically with Health: nil spelled out and metrics attached.
func TestGoldenChaosWithNilHealth(t *testing.T) {
	clu := cluster.TableI(cluster.Config{
		Machines: 2, Seed: 7, NoiseSigma: cluster.DefaultNoiseSigma,
	})
	app := apps.NewMatMul(apps.MatMulConfig{N: 16384})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{
		Retry:  true,
		Health: nil,
	})
	if err := chaosScenario().Apply(sess, clu); err != nil {
		t.Fatal(err)
	}
	reg := withRunMetrics(sess, clu)
	rep, err := sess.Run(sched.NewPLBHeC(sched.Config{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	checkHealthCountersZero(t, reg, "chaos")
	h := fnv.New64a()
	hashRecords(h, rep.Records)
	got := fmt.Sprintf("%016x", h.Sum64())
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenChaosHash {
		t.Fatalf("nil HealthPolicy perturbed the chaos run: hash %s, golden %s",
			got, goldenChaosHash)
	}
}

// TestGoldenMachinePermutationWithNilHealth: the permutation cluster's
// pinned unit totals are unchanged with Health: nil and metrics attached.
func TestGoldenMachinePermutationWithNilHealth(t *testing.T) {
	clu := permClusterAt([2]int{0, 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 8192})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{Health: nil})
	reg := withRunMetrics(sess, clu)
	rep, err := sess.Run(sched.NewPLBHeC(sched.Config{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	checkHealthCountersZero(t, reg, "permutation")
	totals := make(map[string]int64)
	for _, r := range rep.Records {
		totals[clu.PUs()[r.PU].Name()] += r.Units
	}
	ids := make([]string, 0, len(totals))
	for id := range totals {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%s=%d;", id, totals[id])
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenPermutationHash {
		t.Fatalf("nil HealthPolicy perturbed the block distribution: hash %s, golden %s\ntotals: %v",
			got, goldenPermutationHash, totals)
	}
}

// TestGoldenServiceWithNilHealth: the final repetition of a golden service
// cell, rebuilt by hand with an explicit Health: nil and a metrics sink
// attached, produces the identical record stream the pinned service hash is
// built from. (Non-nil Health is rejected by the service constructors, so
// explicit nil is the only composition to re-assert.)
func TestGoldenServiceWithNilHealth(t *testing.T) {
	sc := goldenServiceCells()[0]
	res, err := expt.NewRunner(context.Background(), 1).RunServiceCell(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := fnv.New64a()
	hashRecords(want, res.LastReport.Records)

	// Rebuild the cell's last repetition (i = Seeds-1) exactly as
	// serviceSource does, with Health spelled out as nil.
	i := sc.Seeds - 1
	clu := cluster.TableI(cluster.Config{
		Machines:   sc.Machines,
		Seed:       sc.BaseSeed + int64(i),
		NoiseSigma: cluster.DefaultNoiseSigma,
	})
	pol := sc.Policy
	pol.Seed += int64(i)
	sess, err := starpu.NewServiceSimSession(clu, pol, starpu.SimConfig{Health: nil})
	if err != nil {
		t.Fatal(err)
	}
	reg := withRunMetrics(sess, clu)
	rep, err := sess.RunService()
	if err != nil {
		t.Fatal(err)
	}
	checkHealthCountersZero(t, reg, "service")
	got := fnv.New64a()
	hashRecords(got, rep.Records)
	if g, w := fmt.Sprintf("%016x", got.Sum64()), fmt.Sprintf("%016x", want.Sum64()); g != w {
		t.Fatalf("explicit Health: nil perturbed the service record stream: hash %s, want %s", g, w)
	}
}

// goldenHealthScenario is the pinned failure-detection cell: PLB-HeC with a
// phi-accrual detector over 20 ms heartbeats against a schedule that
// exercises every health path — a real death (true positive, detection
// latency), a partition that heals (false positive, fencing, rejoin), and a
// pure heartbeat loss. The horizon is hardcoded rather than pilot-derived so
// the cell is a constant, like every golden input.
func goldenHealthScenario() expt.Scenario {
	h := 1.2 // a variable, so fault times round exactly as pilot-derived ones do
	return expt.Scenario{
		Kind:     expt.MM,
		Size:     8192,
		Machines: 2,
		Seeds:    3,
		BaseSeed: 9500,
		Sim: starpu.SimConfig{
			Retry: true,
			Health: &starpu.HealthPolicy{
				HeartbeatSeconds: 0.02,
				Detector:         "phi",
				PhiThreshold:     8,
			},
		},
		Prepare: func(_ int, sess *starpu.Session, clu *cluster.Cluster) error {
			return fault.Schedule{Name: "golden-health", Specs: []fault.FaultSpec{
				{Kind: fault.HeartbeatLoss, At: 0.10 * h, PU: 0, Duration: 0.10 * h},
				{Kind: fault.Partition, At: 0.25 * h, PU: 1, Duration: 0.15 * h},
				{Kind: fault.DeviceDeath, At: 0.50 * h, PU: 3},
			}}.Apply(sess, clu)
		},
	}
}

// goldenHealthHash runs the pinned health cell at the given parallelism and
// folds the last repetition's record stream and the cell's summed health
// accounting into one hash.
func goldenHealthHash(t *testing.T, jobs int) string {
	t.Helper()
	r := expt.NewRunner(context.Background(), jobs)
	sc := goldenHealthScenario()
	res, err := r.RunCell(sc, expt.PLBHeC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.N != sc.Seeds {
		t.Fatalf("health cell survived %d/%d repetitions", res.Makespan.N, sc.Seeds)
	}
	// The pinned run must actually exercise the machinery: a real death
	// detected, a false suspicion fenced, a heartbeat stream rejoined.
	acc := res.Resilience
	if acc.Suspicions == 0 || acc.FalseSuspects == 0 || acc.FencedCompletions == 0 || acc.Rejoins == 0 {
		t.Fatalf("health cell too quiet to pin: suspicions=%d false=%d fenced=%d rejoins=%d",
			acc.Suspicions, acc.FalseSuspects, acc.FencedCompletions, acc.Rejoins)
	}
	if acc.DetectionSeconds <= 0 {
		t.Fatalf("no true-positive detection latency accumulated")
	}
	h := fnv.New64a()
	hashRecords(h, res.LastReport.Records)
	var buf [8]byte
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(uint64(acc.Suspicions))
	word(uint64(acc.FalseSuspects))
	word(uint64(acc.Rejoins))
	word(uint64(acc.FencedCompletions))
	word(uint64(acc.Failovers))
	word(uint64(acc.Requeues))
	word(math.Float64bits(acc.DetectionSeconds))
	word(math.Float64bits(res.Makespan.Mean))
	word(math.Float64bits(res.Makespan.Std))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenHealthSweepDeterminism asserts the failure-detection cell's
// record stream and health accounting are bit-identical to the committed
// hash (amd64; other platforms check run-to-run stability only).
func TestGoldenHealthSweepDeterminism(t *testing.T) {
	got := goldenHealthHash(t, 1)
	if again := goldenHealthHash(t, 1); again != got {
		t.Fatalf("health cell not deterministic run-to-run: %s then %s", got, again)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenHealthSweepHash {
		t.Fatalf("health-cell record stream or accounting changed: hash %s, golden %s\n"+
			"If this change is intentional, update goldenHealthSweepHash and document\n"+
			"the observed metric deltas in EXPERIMENTS.md.", got, goldenHealthSweepHash)
	}
}

// TestGoldenHealthParallelInvariance asserts the health cell aggregates
// bit-identically at -jobs 1 and -jobs 8: repetition fan-out must never
// change detector results, only wall-clock time.
func TestGoldenHealthParallelInvariance(t *testing.T) {
	h1 := goldenHealthHash(t, 1)
	h8 := goldenHealthHash(t, 8)
	if h1 != h8 {
		t.Fatalf("health results differ across -jobs: jobs=1 %s, jobs=8 %s", h1, h8)
	}
}
