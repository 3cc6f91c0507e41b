package starpu

import (
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/telemetry"
	"plbhec/internal/workload"
)

// svcTestPolicy builds the two-app policy the service tests share: a
// latency-sensitive Black-Scholes app and a throughput MatMul app.
func svcTestPolicy(horizon float64) ServicePolicy {
	return ServicePolicy{
		Apps: []ServiceApp{
			{Name: "bs", Profile: apps.NewBlackScholes(apps.BlackScholesConfig{Options: 1 << 16}).Profile(),
				SLOSeconds: 0.25,
				Arrivals:   workload.Spec{Kind: workload.Poisson, Rate: 40, Units: 64, Seed: 11}},
			{Name: "mm", Profile: apps.NewMatMul(apps.MatMulConfig{N: 2048}).Profile(),
				SLOSeconds: 1.0,
				Arrivals:   workload.Spec{Kind: workload.Bursty, Rate: 20, Units: 64, Seed: 23}},
		},
		Horizon: horizon,
		Seed:    7,
	}
}

// checkServiceConservation asserts the per-app and session-total
// conservation law Offered == Admitted + Shed + QueuedAtEnd, and that the
// totals are the app sums.
func checkServiceConservation(t *testing.T, sv *ServiceReport) {
	t.Helper()
	var off, adm, shed, queued, defTot int64
	for _, a := range sv.Apps {
		if a.Offered != a.Admitted+a.Shed+a.QueuedAtEnd {
			t.Errorf("app %s: offered %d != admitted %d + shed %d + queued %d",
				a.Name, a.Offered, a.Admitted, a.Shed, a.QueuedAtEnd)
		}
		if a.RequestsDone > a.Admitted {
			t.Errorf("app %s: %d done > %d admitted", a.Name, a.RequestsDone, a.Admitted)
		}
		if a.WithinSLO > a.RequestsDone {
			t.Errorf("app %s: %d within SLO > %d done", a.Name, a.WithinSLO, a.RequestsDone)
		}
		off += a.Offered
		adm += a.Admitted
		shed += a.Shed
		queued += a.QueuedAtEnd
		defTot += a.DeferredTotal
	}
	if sv.Offered != off || sv.Admitted != adm || sv.Shed != shed ||
		sv.QueuedAtEnd != queued || sv.DeferredTotal != defTot {
		t.Errorf("session totals %d/%d/%d/%d/%d disagree with app sums %d/%d/%d/%d/%d",
			sv.Offered, sv.Admitted, sv.Shed, sv.QueuedAtEnd, sv.DeferredTotal,
			off, adm, shed, queued, defTot)
	}
	if sv.Offered != sv.Admitted+sv.Shed+sv.QueuedAtEnd {
		t.Errorf("session conservation: offered %d != admitted %d + shed %d + queued %d",
			sv.Offered, sv.Admitted, sv.Shed, sv.QueuedAtEnd)
	}
}

// TestServiceDeterminism pins the record stream: two sessions built from the
// same cluster seed and service policy must produce bit-identical records
// and service accounting.
func TestServiceDeterminism(t *testing.T) {
	run := func() *Report {
		clu := cluster.TableI(cluster.Config{
			Machines: 2, Seed: 42, NoiseSigma: cluster.DefaultNoiseSigma,
		})
		s, err := NewServiceSimSession(clu, svcTestPolicy(5), SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunService()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Records) == 0 {
		t.Fatal("no records")
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %v vs %v", a.Makespan, b.Makespan)
	}
	sa, sb := a.Service, b.Service
	if sa == nil || sb == nil {
		t.Fatal("missing service report")
	}
	if sa.Offered != sb.Offered || sa.Admitted != sb.Admitted || sa.Shed != sb.Shed {
		t.Fatalf("service totals differ: %+v vs %+v", sa, sb)
	}
	for i := range sa.Apps {
		if sa.Apps[i].LatencyP99 != sb.Apps[i].LatencyP99 {
			t.Fatalf("app %s p99 differs: %v vs %v",
				sa.Apps[i].Name, sa.Apps[i].LatencyP99, sb.Apps[i].LatencyP99)
		}
	}
}

// TestServiceMultiAppAccounting runs the shared two-app session and checks
// the conservation law, exactly-once unit coverage across both apps'
// records, and that both apps made progress against their own profiles.
func TestServiceMultiAppAccounting(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 3})
	pol := svcTestPolicy(5)
	// A tight queue forces the defer and shed paths to exercise too.
	pol.Admission = workload.AdmissionPolicy{MaxInFlight: 8, MaxQueue: 4}
	s, err := NewServiceSimSession(clu, pol, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunService()
	if err != nil {
		t.Fatal(err)
	}
	sv := rep.Service
	if sv == nil {
		t.Fatal("no service report")
	}
	checkServiceConservation(t, sv)
	checkExactlyOnce(t, rep.Records, rep.TotalUnits)
	if sv.QueuedAtEnd != 0 {
		t.Errorf("drain left %d requests queued", sv.QueuedAtEnd)
	}
	var units int64
	for _, a := range sv.Apps {
		if a.RequestsDone == 0 {
			t.Errorf("app %s completed nothing", a.Name)
		}
		if a.RequestsDone != a.Admitted {
			t.Errorf("app %s: %d admitted but %d done", a.Name, a.Admitted, a.RequestsDone)
		}
		if a.RequestsDone > 0 && !(a.LatencyP99 > 0) {
			t.Errorf("app %s: no latency distribution", a.Name)
		}
		units += a.UnitsDone
	}
	if units != rep.TotalUnits {
		t.Errorf("apps account %d units, records cover %d", units, rep.TotalUnits)
	}
}

// svcCapacityRPS is the cluster's aggregate request rate for a profile:
// each unit contributes the reciprocal of its noise-free request seconds.
func svcCapacityRPS(clu *cluster.Cluster, prof device.KernelProfile, units int64) float64 {
	var rps float64
	for _, pu := range clu.PUs() {
		if t := pu.Dev.NominalExecSeconds(prof, float64(units)); t > 0 {
			rps += 1 / t
		}
	}
	return rps
}

// TestServiceOverloadAdmission is the headline ablation: at 2× capacity, the
// admission controller sheds load and holds the achieved p99 near the SLO,
// while the open (admission-disabled) run lets the queue grow without bound
// and p99 explodes.
func TestServiceOverloadAdmission(t *testing.T) {
	prof := apps.NewBlackScholes(apps.BlackScholesConfig{Options: 1 << 16}).Profile()
	const units, slo = 64, 0.25
	run := func(disabled bool) *AppServiceStats {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 5})
		pol := ServicePolicy{
			Apps: []ServiceApp{{
				Name: "bs", Profile: prof, SLOSeconds: slo,
				Arrivals: workload.Spec{
					Kind: workload.Poisson, Units: units, Seed: 31,
					Rate: 2 * svcCapacityRPS(clu, prof, units),
				},
			}},
			Admission: workload.AdmissionPolicy{MaxInFlight: 32, MaxQueue: 16, Disabled: disabled},
			Horizon:   6,
			Seed:      9,
		}
		s, err := NewServiceSimSession(clu, pol, SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunService()
		if err != nil {
			t.Fatal(err)
		}
		checkServiceConservation(t, rep.Service)
		return &rep.Service.Apps[0]
	}
	ctl, open := run(false), run(true)

	if ctl.Shed == 0 {
		t.Error("2x overload with admission on shed nothing")
	}
	if open.Shed != 0 {
		t.Errorf("disabled admission shed %d requests", open.Shed)
	}
	if ctl.LatencyP99 > 4*slo {
		t.Errorf("admission-on p99 %.3fs strayed far from the %.2fs SLO", ctl.LatencyP99, slo)
	}
	if open.LatencyP99 < 4*ctl.LatencyP99 {
		t.Errorf("open p99 %.3fs vs controlled %.3fs: admission bought < 4x", open.LatencyP99, ctl.LatencyP99)
	}
	if open.SLOViolationAt < 0 {
		t.Error("open overload never violated the SLO")
	}
	if ctl.GoodputRPS <= open.GoodputRPS {
		t.Errorf("admission goodput %.1f r/s did not beat open %.1f r/s", ctl.GoodputRPS, open.GoodputRPS)
	}
}

// TestServiceLiveSession runs the open system on the live engine: real
// goroutine workers, wall-clock arrivals, one kernel per app.
func TestServiceLiveSession(t *testing.T) {
	var bsUnits, mmUnits int64
	kernels := []LiveKernel{
		kernelFunc(func(lo, hi int64) { atomic.AddInt64(&bsUnits, hi-lo) }),
		kernelFunc(func(lo, hi int64) { atomic.AddInt64(&mmUnits, hi-lo) }),
	}
	pol := ServicePolicy{
		Apps: []ServiceApp{
			{Name: "bs", Profile: apps.NewBlackScholes(apps.BlackScholesConfig{Options: 1 << 14}).Profile(),
				Arrivals: workload.Spec{Kind: workload.Poisson, Rate: 120, Units: 4, Seed: 1}},
			{Name: "mm", Profile: apps.NewMatMul(apps.MatMulConfig{N: 512}).Profile(),
				Arrivals: workload.Spec{Kind: workload.Poisson, Rate: 80, Units: 4, Seed: 2}},
		},
		Horizon: 0.3,
		Seed:    4,
	}
	s, err := NewServiceLiveSession(kernels, LiveConfig{
		Workers: []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}},
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunService()
	if err != nil {
		t.Fatal(err)
	}
	sv := rep.Service
	if sv == nil {
		t.Fatal("no service report")
	}
	checkServiceConservation(t, sv)
	if sv.Offered == 0 || sv.Admitted == 0 {
		t.Fatalf("live stream offered %d admitted %d", sv.Offered, sv.Admitted)
	}
	var done int64
	for _, a := range sv.Apps {
		done += a.UnitsDone
	}
	if got := atomic.LoadInt64(&bsUnits) + atomic.LoadInt64(&mmUnits); got != done {
		t.Errorf("kernels executed %d units, report says %d", got, done)
	}
	if atomic.LoadInt64(&bsUnits) == 0 || atomic.LoadInt64(&mmUnits) == 0 {
		t.Errorf("an app's kernel never ran: bs=%d mm=%d", bsUnits, mmUnits)
	}
	// Live workers share host memory: no worker may look unreachable to the
	// dispatcher's transfer estimate.
	perWorker := make([]int, len(s.PUs()))
	for _, r := range rep.Records {
		perWorker[r.PU]++
	}
	for i, n := range perWorker {
		if n == 0 {
			t.Errorf("worker %d never got a block: %v", i, perWorker)
		}
	}
}

// TestServiceAdmissionMetricsAgree asserts the plbhec_admitted/shed/
// deferred_total counters mirror the controller's accounts: a deferred
// request counts its defer AND its later dispatch-time admit, so admitted
// matches Report.Service.Admitted exactly.
func TestServiceAdmissionMetricsAgree(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 3})
	pol := svcTestPolicy(5)
	// Heavy load into near-zero concurrency headroom so the stream visits
	// all three verdicts.
	pol.Apps[0].Arrivals.Rate = 400
	pol.Apps[1].Arrivals.Rate = 200
	pol.Admission = workload.AdmissionPolicy{MaxInFlight: 2, MaxQueue: 2}
	s, err := NewServiceSimSession(clu, pol, SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	names := make([]string, len(s.PUs()))
	for i, pu := range s.PUs() {
		names[i] = pu.Name()
	}
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), names))
	s.AttachTelemetry(tel)
	rep, err := s.RunService()
	if err != nil {
		t.Fatal(err)
	}
	sv := rep.Service
	if sv.DeferredTotal == 0 || sv.Shed == 0 {
		t.Fatalf("scenario no longer exercises defer (%d) and shed (%d)", sv.DeferredTotal, sv.Shed)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{"plbhec_admitted_total", sv.Admitted},
		{"plbhec_shed_total", sv.Shed},
		{"plbhec_deferred_total", sv.DeferredTotal},
	} {
		if got := tel.Registry().Counter(c.name).Value(); got != float64(c.want) {
			t.Errorf("%s = %g, Report.Service says %d", c.name, got, c.want)
		}
	}
}

// TestServiceConstructionErrors covers the rejected configurations.
func TestServiceConstructionErrors(t *testing.T) {
	clu := cluster.TableI(cluster.Config{Machines: 1, Seed: 1})
	if _, err := NewServiceSimSession(clu, ServicePolicy{}, SimConfig{}); err == nil {
		t.Error("empty policy accepted")
	}
	pol := svcTestPolicy(1)
	if _, err := NewServiceSimSession(clu, pol, SimConfig{
		Locality: true,
	}); err == nil {
		t.Error("service + locality accepted")
	}
	if _, err := NewServiceLiveSession([]LiveKernel{kernelFunc(func(lo, hi int64) {})},
		LiveConfig{Workers: []LiveWorkerSpec{{Name: "w"}}}, pol); err == nil {
		t.Error("one kernel for two apps accepted")
	}
	app := apps.NewMatMul(apps.MatMulConfig{N: 256})
	plain := NewSimSession(clu, app, SimConfig{})
	if _, err := plain.RunService(); err == nil {
		t.Error("RunService without a ServicePolicy accepted")
	}
}

// TestServiceSteadyStateZeroAlloc guards the arrival → dispatch → complete
// hot path (CI ZeroAlloc|ConstantAlloc gate): the per-arrival heap cost of a
// run must be ~zero, so quadrupling the stream length must not scale the
// run's allocation count with it. Construction (pre-sized records, blocks,
// queue, event heap) is excluded from the measurement. Mallocs counts the
// whole process, so each horizon keeps its fewest over several runs and
// the difference is signed: a stray allocation elsewhere can neither
// inflate the result nor wrap it around.
func TestServiceSteadyStateZeroAlloc(t *testing.T) {
	measure := func(horizon float64) (allocs int64, arrivals int64) {
		allocs = math.MaxInt64
		for run := 0; run < 3; run++ {
			clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 8})
			s, err := NewServiceSimSession(clu, svcTestPolicy(horizon), SimConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rep, err := s.RunService()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocs = min(allocs, int64(after.Mallocs-before.Mallocs))
			arrivals = rep.Service.Offered
		}
		return allocs, arrivals
	}
	aShort, nShort := measure(4)
	aLong, nLong := measure(16)
	if nLong <= nShort {
		t.Fatalf("stream did not grow: %d vs %d arrivals", nShort, nLong)
	}
	perArrival := float64(aLong-aShort) / float64(nLong-nShort)
	if perArrival > 0.5 {
		t.Errorf("steady state allocates %.2f objects per arrival (short run %d allocs / %d arrivals, long %d / %d), want ~0",
			perArrival, aShort, nShort, aLong, nLong)
	}
}

// TestServiceLiveSpeculation: live service mode composes with
// SpeculationPolicy. A throttled worker's blocks expire their watchdogs and
// get backup copies; every copy, backups included, must run its own app's
// kernel, and admission must still conserve requests.
func TestServiceLiveSpeculation(t *testing.T) {
	type span struct{ lo, hi int64 }
	var mu sync.Mutex
	ran := [2][]span{}
	kernel := func(app int) LiveKernel {
		return kernelFunc(func(lo, hi int64) {
			mu.Lock()
			ran[app] = append(ran[app], span{lo, hi})
			mu.Unlock()
			time.Sleep(time.Millisecond)
		})
	}
	pol := ServicePolicy{
		Apps: []ServiceApp{
			{Name: "bs", Profile: apps.NewBlackScholes(apps.BlackScholesConfig{Options: 1 << 14}).Profile(),
				Arrivals: workload.Spec{Kind: workload.Poisson, Rate: 60, Units: 256, Seed: 1}},
			{Name: "mm", Profile: apps.NewMatMul(apps.MatMulConfig{N: 512}).Profile(),
				Arrivals: workload.Spec{Kind: workload.Poisson, Rate: 60, Units: 256, Seed: 2}},
		},
		Horizon: 0.3,
		Seed:    4,
	}
	s, err := NewServiceLiveSession([]LiveKernel{kernel(0), kernel(1)}, LiveConfig{
		Workers: []LiveWorkerSpec{{Name: "fast"}, {Name: "slow", Slowdown: 20}},
		Spec: &SpeculationPolicy{
			DeadlineMultiplier: 2, MinDeadlineSeconds: 0.005,
			MinObservations: 1, SlowAfter: 1 << 20, // never stop feeding the slow worker
		},
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	s.SetPredictor(func(pu int, units float64) float64 { return 0.001 })
	speculated := [2]int{}
	tel := telemetry.New()
	tel.Attach(sinkFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.EvSpeculate && ev.Name == "launch" {
			speculated[s.svc.blocks[ev.Seq].app]++
		}
	}))
	s.AttachTelemetry(tel)
	rep, err := s.RunService()
	if err != nil {
		t.Fatal(err)
	}
	checkServiceConservation(t, rep.Service)
	checkExactlyOnce(t, rep.Records, rep.TotalUnits)
	if speculated[0] == 0 || speculated[1] == 0 {
		t.Fatalf("scenario no longer speculates both apps' blocks: %v", speculated)
	}
	owner := map[span]int{}
	for _, r := range rep.Records {
		owner[span{r.Lo, r.Hi}] = int(s.svc.blocks[r.Seq].app)
	}
	for app, spans := range ran {
		for _, sp := range spans {
			if got, ok := owner[sp]; !ok || got != app {
				t.Errorf("app %d's kernel ran [%d,%d), a range of app %d (known %v)", app, sp.lo, sp.hi, got, ok)
			}
		}
	}
	if copies := len(ran[0]) + len(ran[1]); copies <= len(rep.Records) {
		t.Errorf("%d kernel runs for %d delivered blocks: no backup copy ran", copies, len(rep.Records))
	}
}

// TestServiceArrivalMergeOrder: the merged request stream is exactly the
// stable (time, app) sort of the concatenated per-app schedules — ties
// across apps go to the lower app index, ties within an app keep the app's
// order — on both constructors. The traces share timestamps across apps and
// within one, and app 1's trace arrives unsorted.
func TestServiceArrivalMergeOrder(t *testing.T) {
	trace := func(times ...float64) workload.Spec {
		tr := make([]workload.Arrival, len(times))
		for i, at := range times {
			tr[i] = workload.Arrival{Time: at, Units: int64(i + 1)} // units tell ties apart
		}
		return workload.Spec{Kind: workload.Trace, Trace: tr}
	}
	prof := apps.NewBlackScholes(apps.BlackScholesConfig{Options: 1 << 14}).Profile()
	pol := ServicePolicy{
		Apps: []ServiceApp{
			{Name: "a", Profile: prof, Arrivals: trace(0.01, 0.01, 0.02, 0.03, 0.03, 0.03)},
			{Name: "b", Profile: prof, Arrivals: trace(0.02, 0, 0.01, 0.02, 0.04, 0.01)},
			{Name: "c", Profile: prof, Arrivals: trace(0.01, 0.03, 0.03, 0.05)},
		},
		Horizon: 0.06,
	}
	check := func(t *testing.T, s *Session, pol ServicePolicy) {
		t.Helper()
		var want []svcArrival
		for i, a := range pol.Apps {
			sp := a.Arrivals
			sp.Seed = sp.Seed + pol.Seed*0x9E3779B9 + int64(i)*0x85EBCA6B
			for _, ar := range sp.Generate(pol.Horizon).Arrivals {
				want = append(want, svcArrival{app: int32(i), units: ar.Units, t: ar.Time})
			}
		}
		slices.SortStableFunc(want, func(x, y svcArrival) int {
			if c := cmp.Compare(x.t, y.t); c != 0 {
				return c
			}
			return cmp.Compare(x.app, y.app)
		})
		if !slices.Equal(s.svc.arrivals, want) {
			t.Errorf("merged stream\n got %v\nwant %v", s.svc.arrivals, want)
		}
	}
	t.Run("sim", func(t *testing.T) {
		for _, p := range []ServicePolicy{pol, svcTestPolicy(4)} {
			s, err := NewServiceSimSession(cluster.TableI(cluster.Config{Machines: 2, Seed: 3}), p, SimConfig{})
			if err != nil {
				t.Fatal(err)
			}
			check(t, s, p)
		}
	})
	t.Run("live", func(t *testing.T) {
		k := kernelFunc(func(lo, hi int64) {})
		s, err := NewServiceLiveSession([]LiveKernel{k, k, k}, LiveConfig{
			Workers: []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}},
		}, pol)
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, pol)
		if _, err := s.RunService(); err != nil { // stops the workers
			t.Fatal(err)
		}
	})
}

// eventHeapCap returns the capacity of a simulated session's event heap.
// sim.Engine keeps its heap unexported, and only this test reads it.
func eventHeapCap(s *Session) int {
	return reflect.ValueOf(s.eng.(*simEngine).eng).Elem().FieldByName("queue").Cap()
}

// TestServiceEventHeapPresized: the service constructor sizes the event
// heap to what can be pending at once — the units' events, the in-flight
// blocks' and the one chained arrival — not to the arrival count. An
// overloaded session under Retry, Spec and Health, with a straggler and a
// unit death, must finish without the heap ever growing.
func TestServiceEventHeapPresized(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: seed})
		pol := svcChaosPolicy(clu)
		pol.Apps[0].Arrivals.Rate *= 4 // 2x capacity: admission holds MaxInFlight
		pol.Admission = workload.AdmissionPolicy{MaxInFlight: 32, MaxQueue: 16}
		s, err := NewServiceSimSession(clu, pol, SimConfig{
			Retry: true, Health: DefaultHealthPolicy(),
			Spec: &SpeculationPolicy{DeadlineMultiplier: 2, MinObservations: 1, SlowAfter: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		built := eventHeapCap(s)
		if err := s.ScheduleAt(1.0, func() { s.PUs()[1].Dev.SetSpeedFactor(0.05) }); err != nil {
			t.Fatal(err)
		}
		if err := s.ScheduleAt(2.0, func() {
			s.PUs()[2].Dev.SetSpeedFactor(0)
			s.DeviceStateChanged(2)
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunService()
		if err != nil {
			t.Fatalf("cluster seed %d: %v", seed, err)
		}
		checkServiceConservation(t, rep.Service)
		if rep.Service.DeferredTotal == 0 {
			t.Fatalf("cluster seed %d: admission never reached MaxInFlight; the heap is not loaded", seed)
		}
		var specs int64
		for _, r := range rep.Resilience {
			specs += r.Speculations
		}
		if specs == 0 {
			t.Fatalf("cluster seed %d: no watchdog fired; no backup copy was pending", seed)
		}
		if got := eventHeapCap(s); got != built {
			t.Errorf("cluster seed %d: event heap grew from %d to %d slots", seed, built, got)
		}
	}
}

// BenchmarkNewServiceSimSession builds one session of the repository
// benchmark's service workload at its 2.0x load point: two Poisson apps on
// two Table I machines, 600 s of arrivals.
func BenchmarkNewServiceSimSession(b *testing.B) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 5})
	bs := apps.NewBlackScholes(apps.BlackScholesConfig{Options: 100000}).Profile()
	mm := apps.NewMatMul(apps.MatMulConfig{N: 8192}).Profile()
	pol := ServicePolicy{
		Apps: []ServiceApp{
			{Name: "bs", Profile: bs, SLOSeconds: 0.25, Arrivals: workload.Spec{
				Kind: workload.Poisson, Units: 64, Seed: 11, Rate: 2 * svcCapacityRPS(clu, bs, 64)}},
			{Name: "mm", Profile: mm, SLOSeconds: 1, Arrivals: workload.Spec{
				Kind: workload.Poisson, Units: 256, Seed: 23, Rate: 2 * svcCapacityRPS(clu, mm, 256)}},
		},
		Admission: workload.AdmissionPolicy{MaxInFlight: 32, MaxQueue: 16},
		Horizon:   600,
		Seed:      5,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewServiceSimSession(clu, pol, SimConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
