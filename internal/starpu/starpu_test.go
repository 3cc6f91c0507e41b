package starpu

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
)

// fixedScheduler assigns fixed-size blocks to every PU round-robin — a
// minimal policy for exercising the runtime.
type fixedScheduler struct {
	block float64
	stats map[string]float64
}

func (f *fixedScheduler) Name() string { return "fixed" }
func (f *fixedScheduler) Start(s *Session) {
	for _, pu := range s.PUs() {
		if s.Remaining() == 0 {
			return
		}
		s.Assign(pu, f.block)
	}
}
func (f *fixedScheduler) TaskFinished(s *Session, rec TaskRecord) {
	if s.Remaining() > 0 {
		s.Assign(s.PUs()[rec.PU], f.block)
	}
}
func (f *fixedScheduler) Stats() map[string]float64 { return f.stats }

// stallScheduler submits one block and then stops — a protocol violation.
type stallScheduler struct{}

func (stallScheduler) Name() string                      { return "stall" }
func (stallScheduler) Start(s *Session)                  { s.Assign(s.PUs()[0], 1) }
func (stallScheduler) TaskFinished(*Session, TaskRecord) {}

// lazyScheduler never submits anything.
type lazyScheduler struct{}

func (lazyScheduler) Name() string                      { return "lazy" }
func (lazyScheduler) Start(*Session)                    {}
func (lazyScheduler) TaskFinished(*Session, TaskRecord) {}

func newTestSession(units int64) *Session {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 1024})
	_ = app
	// Use a small custom app size by wrapping MatMul of that order: units
	// == N for MM, so pick N = units.
	app = apps.NewMatMul(apps.MatMulConfig{N: units})
	return NewSimSession(clu, app, SimConfig{})
}

func TestSimSessionProcessesAllUnits(t *testing.T) {
	s := newTestSession(1000)
	rep, err := s.Run(&fixedScheduler{block: 37})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	seen := map[[2]int64]bool{}
	for _, r := range rep.Records {
		total += r.Units
		if r.Units != r.Hi-r.Lo {
			t.Errorf("record units %d != Hi-Lo %d", r.Units, r.Hi-r.Lo)
		}
		key := [2]int64{r.Lo, r.Hi}
		if seen[key] {
			t.Errorf("duplicate range %v", key)
		}
		seen[key] = true
	}
	if total != 1000 {
		t.Errorf("processed %d units, want 1000", total)
	}
	if rep.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if rep.SchedulerName != "fixed" || rep.TotalUnits != 1000 {
		t.Errorf("report metadata wrong: %+v", rep)
	}
	if len(rep.PUNames) != 4 {
		t.Errorf("PUNames = %v", rep.PUNames)
	}
}

func TestRecordsHaveConsistentTimes(t *testing.T) {
	s := newTestSession(500)
	rep, err := s.Run(&fixedScheduler{block: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Records {
		if !(r.SubmitTime <= r.TransferStart && r.TransferStart <= r.TransferEnd &&
			r.TransferEnd <= r.ExecStart && r.ExecStart < r.ExecEnd) {
			t.Fatalf("inconsistent record times: %+v", r)
		}
	}
}

func TestPUSequentialExecution(t *testing.T) {
	s := newTestSession(800)
	rep, err := s.Run(&fixedScheduler{block: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Kernel intervals on one PU must not overlap.
	lastEnd := map[int]float64{}
	for _, r := range rep.Records {
		if r.ExecStart < lastEnd[r.PU]-1e-12 {
			t.Fatalf("overlapping execution on PU %d: start %g < previous end %g",
				r.PU, r.ExecStart, lastEnd[r.PU])
		}
		if r.ExecEnd > lastEnd[r.PU] {
			lastEnd[r.PU] = r.ExecEnd
		}
	}
}

func TestSchedulerStallDetected(t *testing.T) {
	s := newTestSession(100)
	_, err := s.Run(stallScheduler{})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Errorf("expected stall error, got %v", err)
	}
}

func TestSchedulerNoInitialWork(t *testing.T) {
	s := newTestSession(100)
	_, err := s.Run(lazyScheduler{})
	if err == nil || !strings.Contains(err.Error(), "no initial work") {
		t.Errorf("expected no-initial-work error, got %v", err)
	}
}

func TestSessionSingleUse(t *testing.T) {
	s := newTestSession(64)
	if _, err := s.Run(&fixedScheduler{block: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(&fixedScheduler{block: 8}); err == nil {
		t.Error("second Run on one session must fail")
	}
}

func TestAssignClampsAndRounds(t *testing.T) {
	s := newTestSession(10)
	var got []int64
	sched := &callbackScheduler{
		start: func(ss *Session) {
			got = append(got, ss.Assign(ss.PUs()[0], 3.6))  // rounds to 4
			got = append(got, ss.Assign(ss.PUs()[1], 0.2))  // at least 1
			got = append(got, ss.Assign(ss.PUs()[2], 1000)) // clamped to remaining 5
			got = append(got, ss.Assign(ss.PUs()[3], 1))    // nothing left → 0
		},
	}
	if _, err := s.Run(sched); err != nil {
		t.Fatal(err)
	}
	want := []int64{4, 1, 5, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Assign #%d = %d, want %d", i, got[i], want[i])
		}
	}
}

// callbackScheduler delegates to closures.
type callbackScheduler struct {
	start    func(*Session)
	finished func(*Session, TaskRecord)
}

func (c *callbackScheduler) Name() string { return "callback" }
func (c *callbackScheduler) Start(s *Session) {
	if c.start != nil {
		c.start(s)
	}
}
func (c *callbackScheduler) TaskFinished(s *Session, r TaskRecord) {
	if c.finished != nil {
		c.finished(s, r)
	}
}

func TestChargeOverheadDelaysTransfers(t *testing.T) {
	run := func(charge bool) float64 {
		clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
		app := apps.NewMatMul(apps.MatMulConfig{N: 256})
		ov := OverheadModel{SolveSeconds: 5}
		sess := NewSimSession(clu, app, SimConfig{Overheads: &ov})
		sched := &callbackScheduler{}
		sched.start = func(ss *Session) {
			if charge {
				ss.ChargeSolve()
			}
			ss.Assign(ss.PUs()[0], 256)
		}
		rep, err := sess.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	free := run(false)
	charged := run(true)
	if charged < free+4.9 {
		t.Errorf("charged overhead not reflected: %g vs %g", charged, free)
	}
}

func TestRecordDistributionNormalizes(t *testing.T) {
	s := newTestSession(10)
	sched := &callbackScheduler{
		start: func(ss *Session) {
			ss.RecordDistribution("test", []float64{2, 2, 4, 0})
			ss.Assign(ss.PUs()[0], 10)
		},
	}
	rep, err := s.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Distributions[0]
	want := []float64{0.25, 0.25, 0.5, 0}
	for i := range want {
		if d.X[i] != want[i] {
			t.Errorf("normalized dist = %v", d.X)
		}
	}
	if d.Label != "test" {
		t.Errorf("label = %q", d.Label)
	}
}

func TestScheduleAtPerturbsDevices(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 4096})
	sess := NewSimSession(clu, app, SimConfig{})
	gpu := clu.Machines[0].GPUs[0]
	if err := sess.ScheduleAt(0.001, func() { gpu.SetSpeedFactor(0.5) }); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(&fixedScheduler{block: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Same run without perturbation: the GPU's total kernel time must be
	// smaller than in the perturbed run (tasks launched after t=0.001 run
	// at half speed).
	clu2 := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	rep2, err := NewSimSession(clu2, app, SimConfig{}).Run(&fixedScheduler{block: 512})
	if err != nil {
		t.Fatal(err)
	}
	gpuBusy := func(rep *Report) float64 {
		var sum float64
		for _, r := range rep.Records {
			if r.PU == 1 {
				sum += r.ExecSeconds()
			}
		}
		return sum
	}
	if gpuBusy(rep) <= gpuBusy(rep2) {
		t.Errorf("slowdown had no effect on GPU busy time: %g vs %g", gpuBusy(rep), gpuBusy(rep2))
	}
}

func TestStatsReporterSurfaced(t *testing.T) {
	s := newTestSession(64)
	rep, err := s.Run(&fixedScheduler{block: 8, stats: map[string]float64{"x": 7}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchedulerStats["x"] != 7 {
		t.Errorf("SchedStats = %v", rep.SchedulerStats)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		clu := cluster.TableI(cluster.Config{Machines: 3, Seed: 5, NoiseSigma: 0.015})
		app := apps.NewMatMul(apps.MatMulConfig{N: 2048})
		rep, err := NewSimSession(clu, app, SimConfig{}).Run(&fixedScheduler{block: 64})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	if run() != run() {
		t.Error("identical configurations produced different makespans")
	}
}

// TestScheduleAtRejectsNonFinite: a NaN or +Inf callback time could never
// fire; both engines reject it with an error instead of panicking inside
// the event queue, while a -Inf time clamps to now like any past time.
func TestScheduleAtRejectsNonFinite(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	sims := NewSimSession(clu, apps.NewMatMul(apps.MatMulConfig{N: 256}), SimConfig{})
	live := NewLiveSession(kernelFunc(func(lo, hi int64) {}), LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "w"}},
		TotalUnits: 4,
	})
	for name, sess := range map[string]*Session{"sim": sims, "live": live} {
		for _, at := range []float64{math.NaN(), math.Inf(1)} {
			if err := sess.ScheduleAt(at, func() { t.Errorf("%s: callback at %g fired", name, at) }); err == nil {
				t.Errorf("%s: ScheduleAt(%g) accepted", name, at)
			}
		}
		fired := false
		if err := sess.ScheduleAt(math.Inf(-1), func() { fired = true }); err != nil {
			t.Errorf("%s: ScheduleAt(-Inf) rejected: %v", name, err)
		}
		if _, err := sess.Run(&fixedScheduler{block: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !fired {
			t.Errorf("%s: the -Inf callback never fired", name)
		}
	}
}

// TestSimBlockCycleZeroAlloc pins the closed-system simulator's
// launch → complete → TaskFinished cycle as allocation-free: doubling the
// block count must not scale the run's allocation count with it, with no
// policy, under Retry, and under Spec. Construction is excluded from the
// measurement. Mallocs counts the whole process, so each length keeps its
// fewest over several runs and the difference is signed.
func TestSimBlockCycleZeroAlloc(t *testing.T) {
	prof := apps.NewMatMul(apps.MatMulConfig{N: 2048}).Profile()
	const block = 16
	for _, c := range []struct {
		name string
		cfg  SimConfig
	}{
		{"none", SimConfig{}},
		{"Retry", SimConfig{Retry: true}},
		{"Spec", SimConfig{Retry: true, Spec: DefaultSpeculationPolicy()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			measure := func(blocks int64) int64 {
				allocs := int64(math.MaxInt64)
				for run := 0; run < 3; run++ {
					clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 3})
					s, _ := newSimSession(clu, prof, "mm", blocks*block, blocks*block, c.cfg)
					var before, after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&before)
					rep, err := s.Run(&fixedScheduler{block: block})
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					if int64(len(rep.Records)) != blocks {
						t.Fatalf("%d records for %d blocks", len(rep.Records), blocks)
					}
					allocs = min(allocs, int64(after.Mallocs-before.Mallocs))
				}
				return allocs
			}
			const n = 2000
			short, long := measure(n), measure(2*n)
			if perBlock := float64(long-short) / n; perBlock > 0.01 {
				t.Errorf("block cycle allocates %.4f objects per extra block (%d allocs for %d blocks, %d for %d), want ≤ 0.01",
					perBlock, short, n, long, 2*n)
			}
		})
	}
}

// TestFaultInjectionIgnoresOutOfRangeUnit: InjectPartition and
// InjectHeartbeatLoss ignore a unit ID outside the cluster, as
// DeviceStateChanged, NoteDeviceDown and Suspected do, instead of panicking.
func TestFaultInjectionIgnoresOutOfRangeUnit(t *testing.T) {
	s := newTestSession(256)
	n := len(s.PUs())
	for _, id := range []int{-1, n, n + 7} {
		s.InjectPartition(id, 1)
		s.InjectHeartbeatLoss(id, 1)
		s.DeviceStateChanged(id)
		if s.NoteDeviceDown(id) || s.Suspected(id) {
			t.Errorf("unit %d outside the cluster was noted", id)
		}
	}
	rep, err := s.Run(&fixedScheduler{block: 32})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, 256)
}
