package starpu

import (
	"math"

	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/stats"
	"plbhec/internal/telemetry"
	"plbhec/internal/workload"
)

// This file is the open-system service mode (docs/SERVICE.md): instead of a
// fixed block set drained to a makespan, requests arrive mid-run on seeded
// workload streams, several applications with distinct kernel profiles
// share one cluster session, and an admission controller decides
// admit/defer/shed per request against each app's live p99-vs-SLO signal.
// The mode is opt-in behind ServicePolicy, like the retry, speculation,
// health and locality policies: sessions built without it keep every legacy
// code path — and the three pinned golden hashes — bit-identical.

// ServiceApp is one application sharing a service session: a kernel profile
// for the device models, a latency SLO, and the arrival stream offering its
// requests.
type ServiceApp struct {
	Name string
	// Profile is the app's kernel cost profile (drives exec and transfer
	// modeling per block, exactly as in closed-system sessions).
	Profile device.KernelProfile
	// SLOSeconds is the app's p99 latency target. When the app's live p99
	// exceeds it, new requests are shed (load shedding) and the first
	// violation time is reported. <= 0 disables SLO-driven shedding.
	SLOSeconds float64
	// Arrivals describes the app's request stream (see workload.Spec).
	Arrivals workload.Spec
}

// ServicePolicy opts a session into service mode.
type ServicePolicy struct {
	// Apps are the applications sharing the session (at least one).
	Apps []ServiceApp
	// Admission bounds concurrent load; the zero value takes the documented
	// defaults, Disabled admits everything (the overload ablation).
	Admission workload.AdmissionPolicy
	// Horizon is the arrival-stream length in engine seconds. <= 0 or
	// non-finite means 10.
	Horizon float64
	// Seed offsets every app's arrival stream, so one repetition seed
	// reseeds the whole session. Streams additionally mix in each app's own
	// Arrivals.Seed and index, keeping apps decorrelated.
	Seed int64
}

// normalized returns a validated copy with defaults filled in.
func (p ServicePolicy) normalized() (ServicePolicy, error) {
	q := p
	if len(q.Apps) == 0 {
		return q, runtimeError("service policy needs at least one app")
	}
	q.Apps = append([]ServiceApp(nil), q.Apps...)
	for i := range q.Apps {
		a := &q.Apps[i]
		if a.Name == "" {
			a.Name = a.Profile.Name
		}
		if a.Name == "" {
			a.Name = "app" + itoa(i)
		}
		if err := a.Profile.Validate(); err != nil {
			return q, err
		}
		if !(a.SLOSeconds > 0) || math.IsInf(a.SLOSeconds, 0) {
			a.SLOSeconds = 0
		}
	}
	if !(q.Horizon > 0) || math.IsInf(q.Horizon, 0) {
		q.Horizon = 10
	}
	return q, nil
}

// itoa is a minimal positive-int formatter (avoids fmt on init paths).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// svcArrival is one materialized request: which app offered it, when, and
// how many units it carries. The same value type serves as the deferred
// queue's element and as the service-side identity of the block that runs
// it (the engines substitute its app's profile for the session's).
type svcArrival struct {
	app   int32
	units int64
	t     float64
}

// svcApp is one app's runtime state and accounting.
type svcApp struct {
	name   string
	prof   device.KernelProfile
	slo    float64
	sketch *stats.QuantileSketch
	// win is the rolling-window sketch behind the live p99 signal; winPrev
	// carries the last completed window's p99 across the roll (NaN when
	// that window was idle). The cumulative sketch above keeps the
	// whole-run distribution for reporting.
	win          *stats.QuantileSketch
	winStart     float64
	winPrev      float64
	p99          float64 // live p99 signal; NaN until observed
	offered      int64
	admitted     int64
	shed         int64
	deferredEver int64
	reqDone      int64
	withinSLO    int64
	unitsDone    int64
	sloViolAt    float64 // first time live p99 exceeded slo; -1 never
}

// serviceState is the session's open-system machinery, nil outside service
// mode. Everything here is touched only on the driving goroutine.
type serviceState struct {
	pol  ServicePolicy
	apps []svcApp
	ctrl *workload.Controller

	// arrivals is the merged, time-ordered request stream of every app.
	arrivals []svcArrival
	next     int

	// queue is the deferred-request FIFO ring (bounded by the admission
	// policy; grows only in the Disabled-admission corner).
	queue []svcArrival
	qhead int
	qlen  int

	// busyUntil is the dispatcher's per-unit finish-time estimate (ETA
	// bookkeeping, engine seconds): placement = earliest predicted finish.
	busyUntil []float64

	// blocks records the request each dispatched block runs, indexed by
	// sequence number. Pre-sized to the arrival count so steady-state
	// dispatch never grows it.
	blocks []svcArrival

	// feed is serviceFeed as a func value, bound once so that scheduling
	// each next arrival on the engine's timer allocates nothing.
	feed func()
}

// initService builds the service state onto a constructed session. Must run
// before the first Run; the engine is already attached.
func (s *Session) initService(pol ServicePolicy) error {
	if s.res != nil {
		return runtimeError("service mode does not compose with locality " +
			"(the residency cache models one bytes-per-unit figure; per-app profiles differ)")
	}
	sv := &serviceState{pol: pol, ctrl: workload.NewController(pol.Admission)}
	sv.apps = make([]svcApp, len(pol.Apps))
	scheds := make([]workload.Schedule, len(pol.Apps))
	total := 0
	for i, a := range pol.Apps {
		sp := a.Arrivals
		// Mix the policy seed and the app index into the stream seed so one
		// repetition seed reseeds every stream while keeping them distinct.
		sp.Seed = sp.Seed + pol.Seed*0x9E3779B9 + int64(i)*0x85EBCA6B
		scheds[i] = sp.Generate(pol.Horizon)
		sv.apps[i] = svcApp{
			name: a.Name, prof: a.Profile, slo: a.SLOSeconds,
			sketch: stats.NewQuantileSketch(), win: stats.NewQuantileSketch(),
			winPrev: math.NaN(), p99: math.NaN(), sloViolAt: -1,
		}
		total += len(scheds[i].Arrivals)
	}
	sv.arrivals = mergeArrivals(scheds, total)
	sv.busyUntil = make([]float64, len(s.pus))
	sv.blocks = make([]svcArrival, 0, total)
	qcap := sv.ctrl.Policy().MaxQueue
	if qcap > total {
		qcap = total
	}
	if qcap < 1 {
		qcap = 1
	}
	sv.queue = make([]svcArrival, qcap)
	sv.feed = s.serviceFeed
	s.svc = sv
	s.appName = "service"
	// Size the record log's first chunk to the offered-load ceiling: the
	// log stays one chunk, so the steady-state arrival → dispatch → complete
	// cycle stays allocation-free (the zero-alloc guard test pins this) and
	// the Report takes the chunk without a copy.
	s.log.reserve(total + 16)
	return nil
}

// mergeArrivals merges the per-app schedules, each nondecreasing in time by
// the workload.Schedule contract, into one time-ordered stream of all total
// requests. Ties go to the lower app index, then keep within-app order — the
// order a stable sort of the concatenated streams by (time, app) gives — in
// time linear in the request count for a fixed number of apps.
func mergeArrivals(scheds []workload.Schedule, total int) []svcArrival {
	out := make([]svcArrival, 0, total)
	pos := make([]int, len(scheds))
	for len(out) < total {
		best := -1
		for i, sc := range scheds {
			if pos[i] < len(sc.Arrivals) &&
				(best < 0 || sc.Arrivals[pos[i]].Time < scheds[best].Arrivals[pos[best]].Time) {
				best = i
			}
		}
		a := scheds[best].Arrivals[pos[best]]
		pos[best]++
		out = append(out, svcArrival{app: int32(best), units: a.Units, t: a.Time})
	}
	return out
}

// NewServiceSimSession builds a simulated open-system session on clu: the
// policy's apps offer requests over the horizon, and cfg's Retry/Spec/
// Health/Overheads compose exactly as in closed-system sessions.
// cfg.Locality is rejected (see initService).
func NewServiceSimSession(clu *cluster.Cluster, pol ServicePolicy, cfg SimConfig) (*Session, error) {
	np, err := pol.normalized()
	if err != nil {
		return nil, err
	}
	s, se := newSimSession(clu, np.Apps[0].Profile, "service", 0, 0, cfg)
	if err := s.initService(np); err != nil {
		return nil, err
	}
	// serviceFeed chains the arrivals on the timer, so one is pending at a
	// time. Every other pending event belongs to a unit (heartbeats and
	// suspicion checks) or to an admitted block: its completion and, under
	// speculation, its watchdog and its backup's completion. Only a session
	// with admission disabled can outgrow this.
	se.eng.Grow(4*len(s.pus) + 3*s.svc.ctrl.Policy().MaxInFlight + 16)
	return s, nil
}

// NewServiceLiveSession builds a live open-system session: one goroutine
// worker per cfg.Workers entry, one real kernel per app (kernels[i] executes
// app i's blocks; each must tolerate arbitrary unit ranges, as the service
// cursor is global). Arrivals replay the merged stream in wall-clock time
// through the engine's timer queue; cfg's Retry, Spec and Health compose as
// on the simulator.
func NewServiceLiveSession(kernels []LiveKernel, cfg LiveConfig, pol ServicePolicy) (*Session, error) {
	np, err := pol.normalized()
	if err != nil {
		return nil, err
	}
	if len(kernels) != len(np.Apps) {
		return nil, runtimeError("service live session: %d kernels for %d apps", len(kernels), len(np.Apps))
	}
	if cfg.Locality {
		return nil, runtimeError("service mode does not compose with locality")
	}
	cfg.TotalUnits = 0
	cfg.Profile = np.Apps[0].Profile
	if cfg.AppName == "" {
		cfg.AppName = "service"
	}
	s := NewLiveSession(kernels[0], cfg)
	le := s.eng.(*liveEngine)
	// Written before any block is sent to a worker; the channel send/receive
	// pair orders this write before every worker read.
	le.kernels = kernels
	if err := s.initService(np); err != nil {
		return nil, err
	}
	return s, nil
}

// serviceDispatcher is the built-in scheduler driving service sessions: it
// starts the arrival stream, observes completions into the per-app latency
// accounts, and drains the deferred queue as capacity frees up. Service
// sessions only accept this scheduler (Run enforces it) — placement policy
// in service mode is the dispatcher's earliest-predicted-finish rule, not a
// pluggable closed-system policy.
type serviceDispatcher struct{}

// ServiceScheduler returns the scheduler that drives service sessions; pass
// it to Run (or use the RunService shorthand).
func ServiceScheduler() Scheduler { return serviceDispatcher{} }

// Name implements Scheduler.
func (serviceDispatcher) Name() string { return "service-eta" }

// Start implements Scheduler: service sessions start with nothing in flight
// (remaining == 0), so the no-initial-work check does not trip; the timer
// scheduled here injects the first arrival.
func (serviceDispatcher) Start(s *Session) { s.serviceStart() }

// TaskFinished implements Scheduler.
func (serviceDispatcher) TaskFinished(s *Session, rec TaskRecord) {
	s.serviceCompleted(rec)
	s.serviceDrain()
}

// RunService executes the service session to the end of its arrival stream
// plus drain, under the built-in dispatcher.
func (s *Session) RunService() (*Report, error) {
	if s.svc == nil {
		return nil, runtimeError("RunService on a session without a ServicePolicy")
	}
	return s.Run(serviceDispatcher{})
}

// serviceFeed offers the next request of the merged arrival stream and
// schedules the one after it on the engine's timer.
func (s *Session) serviceFeed() {
	sv := s.svc
	r := sv.arrivals[sv.next]
	sv.next++
	if sv.next < len(sv.arrivals) && s.violation == nil {
		s.eng.at(sv.arrivals[sv.next].t, sv.feed)
	}
	s.serviceArrive(r)
	s.serviceDrain()
}

// serviceStart schedules the first arrival on the session's engine.
func (s *Session) serviceStart() {
	if sv := s.svc; len(sv.arrivals) > 0 {
		s.eng.at(sv.arrivals[0].t, sv.feed)
	}
}

// serviceArrive processes one offered request: per-app accounting, the
// admission decision, and — on admit — immediate dispatch. An admitted
// request with no live unit to run on demotes to the queue (or sheds when
// the queue is full) instead of being lost.
func (s *Session) serviceArrive(r svcArrival) {
	if s.violation != nil {
		return // the run is failing; stop offering
	}
	sv := s.svc
	a := &sv.apps[r.app]
	a.offered++
	// Roll the live-p99 window forward on arrival time as well as on
	// completions: when a full shed leaves nothing in flight, arrivals are
	// the only clock that can expire the poisoned window.
	s.serviceRefreshP99(a, s.eng.now())
	d := sv.ctrl.Offer(s.inflight, a.p99, a.slo)
	if d == workload.Admit && !s.serviceDispatch(r) {
		d = sv.ctrl.Demote()
	}
	switch d {
	case workload.Admit:
		a.admitted++
	case workload.Defer:
		sv.push(r)
		a.deferredEver++
	case workload.Shed:
		a.shed++
	}
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvAdmission, Time: s.eng.now(),
			PU: -1, Seq: -1, Units: r.units, Name: d.String(), Value: float64(r.app),
		})
	}
}

// serviceDispatch places request r as one block on the unit with the
// earliest predicted finish. It reports false — touching nothing — when no
// live, eligible unit exists.
func (s *Session) serviceDispatch(r svcArrival) bool {
	sv := s.svc
	pu, eta := s.servicePickPU(r.app, r.units)
	if pu < 0 {
		return false
	}
	sv.blocks = append(sv.blocks, r)
	s.total += r.units
	s.remaining += r.units
	s.Assign(s.pus[pu], float64(r.units))
	sv.busyUntil[pu] = eta
	return true
}

// servicePickPU returns the eligible unit with the earliest predicted
// finish for a block of the app's profile, and that finish estimate.
// Predictions use the noise-free device model (NominalExecSeconds — the
// noisy ExecSeconds draws from the device RNG and would perturb the
// deterministic record stream) plus the nominal transfer path. Failed,
// blacklisted and suspected units are skipped; ties break to the lowest ID.
// Units soft-blacklisted as stragglers are avoided while any other unit
// qualifies, but remain a last resort, as in pickRequeueTarget: only a block
// finished within deadline lifts the mark, so a pool that skipped every
// marked unit could stop dispatching for good. Returns -1 when no unit
// qualifies.
func (s *Session) servicePickPU(app int32, units int64) (int, float64) {
	sv := s.svc
	prof := &sv.apps[app].prof
	now := s.eng.now()
	best, bestEta := -1, 0.0
	bestSlow, bestSlowEta := -1, 0.0
	for i, pu := range s.pus {
		if pu.Dev.Failed() || s.blacklist[i] || s.Suspected(i) {
			continue
		}
		exec := pu.Dev.NominalExecSeconds(*prof, float64(units))
		if exec != exec || exec < 0 || exec > 1e18 {
			continue
		}
		start := sv.busyUntil[i]
		if now > start {
			start = now
		}
		eta := start + pu.NominalTransferSeconds(float64(units)*prof.TransferBytesPerUnit) + exec
		if s.spec != nil && s.slow[i] {
			if bestSlow < 0 || eta < bestSlowEta {
				bestSlow, bestSlowEta = i, eta
			}
			continue
		}
		if best < 0 || eta < bestEta {
			best, bestEta = i, eta
		}
	}
	if best < 0 {
		return bestSlow, bestSlowEta
	}
	return best, bestEta
}

// serviceCompleted settles one finished block: its request's latency
// (arrival → kernel completion, queueing included) feeds its app's sketch,
// the cached p99 refreshes, and the first SLO violation time is recorded.
// Exactly-once across retry and speculation is inherited from the engines:
// only the winning copy of a block reaches onComplete.
func (s *Session) serviceCompleted(rec TaskRecord) {
	sv := s.svc
	r := sv.blocks[rec.Seq]
	a := &sv.apps[r.app]
	end := rec.ExecEnd
	s.serviceObserve(a, r, end)
	s.serviceRefreshP99(a, end)
	if a.slo > 0 && a.sloViolAt < 0 && a.p99 > a.slo {
		a.sloViolAt = end
	}
}

const (
	// p99WindowSeconds is the rolling measurement window behind the live p99
	// signal fed to the admission controller: shedding reacts to the recent
	// latency distribution and recovers once a burst passes, where a
	// cumulative p99 would stay poisoned forever.
	p99WindowSeconds = 1
	// p99MinWindowSamples is how many observations the current window needs
	// before its own p99 overrides the previous window's carried value.
	p99MinWindowSamples = 8
)

// serviceRefreshP99 updates the app's live p99 from the rolling measurement
// window (p99WindowSeconds): the current window once it holds enough mass,
// otherwise the last completed window's value. An idle window
// clears the carried value, so admission recovers after a burst instead of
// shedding forever on a poisoned cumulative distribution.
func (s *Session) serviceRefreshP99(a *svcApp, now float64) {
	if now >= a.winStart+p99WindowSeconds {
		if a.win.Count() > 0 {
			a.winPrev = a.win.Quantile(0.99)
			a.win.Reset()
		} else {
			a.winPrev = math.NaN()
		}
		a.winStart = now
	}
	switch {
	case a.win.Count() >= p99MinWindowSamples:
		a.p99 = a.win.Quantile(0.99)
	case !math.IsNaN(a.winPrev):
		a.p99 = a.winPrev
	case a.win.Count() > 0:
		a.p99 = a.win.Quantile(0.99)
	default:
		// Two consecutive idle windows: no signal. Without this reset a
		// full shed would freeze the poisoned p99 forever — nothing
		// completes, so nothing would ever pull the signal back down.
		a.p99 = math.NaN()
	}
}

// serviceObserve accounts one request's completion.
func (s *Session) serviceObserve(a *svcApp, r svcArrival, end float64) {
	lat := end - r.t
	a.sketch.Observe(lat)
	a.win.Observe(lat)
	a.reqDone++
	if a.slo <= 0 || lat <= a.slo {
		a.withinSLO++
	}
	a.unitsDone += r.units
}

// serviceDrain admits queued requests in FIFO order while capacity allows.
// A drain stops when the queue empties, capacity is exhausted, or no live
// unit can take the head-of-line request (nothing behind it is considered).
func (s *Session) serviceDrain() {
	sv := s.svc
	if sv == nil || s.violation != nil {
		return
	}
	for sv.qlen > 0 && sv.ctrl.CanDispatch(s.inflight) {
		head := sv.peek()
		if !s.serviceDispatch(head) {
			return // nothing alive to run on; keep the queue intact
		}
		sv.pop()
		sv.ctrl.Dispatch()
		sv.apps[head.app].admitted++
		if s.tel != nil {
			// A deferral counts both its defer and its later admit, so the
			// plbhec_admitted_total counter mirrors Controller.Admitted().
			s.tel.Emit(telemetry.Event{
				Kind: telemetry.EvAdmission, Time: s.eng.now(),
				PU: -1, Seq: -1, Units: head.units, Name: "admit", Value: float64(head.app),
			})
		}
	}
}

// push appends one request to the deferred ring, growing it only in the
// Disabled-admission corner (the bounded policy never exceeds MaxQueue, the
// ring's pre-sized capacity).
func (sv *serviceState) push(r svcArrival) {
	if sv.qlen == len(sv.queue) {
		grown := make([]svcArrival, 2*len(sv.queue)+1)
		for i := 0; i < sv.qlen; i++ {
			grown[i] = sv.queue[(sv.qhead+i)%len(sv.queue)]
		}
		sv.queue = grown
		sv.qhead = 0
	}
	sv.queue[(sv.qhead+sv.qlen)%len(sv.queue)] = r
	sv.qlen++
}

// peek returns the head queued request without popping it.
func (sv *serviceState) peek() svcArrival { return sv.queue[sv.qhead] }

// pop discards the head queued request.
func (sv *serviceState) pop() {
	sv.qhead = (sv.qhead + 1) % len(sv.queue)
	sv.qlen--
}

// profileFor returns the kernel profile governing block seq: the owning
// app's in service mode, the session's single profile otherwise. The
// engines call it on every launch; outside service mode it is one nil check.
func (s *Session) profileFor(seq int) device.KernelProfile {
	if s.svc != nil {
		return s.svc.apps[s.svc.blocks[seq].app].prof
	}
	return s.profile
}

// transferBytesPerUnit returns the per-unit shipped bytes for block seq
// (per-app in service mode).
func (s *Session) transferBytesPerUnit(seq int) float64 {
	if s.svc != nil {
		return s.svc.apps[s.svc.blocks[seq].app].prof.TransferBytesPerUnit
	}
	return s.profile.TransferBytesPerUnit
}

// AppServiceStats is one app's service-mode outcome.
type AppServiceStats struct {
	Name       string
	SLOSeconds float64

	// Offered = Admitted + Shed + QueuedAtEnd (the conservation law the
	// fuzz suite pins on the controller). DeferredTotal counts requests
	// that waited in the queue at some point, admitted or not.
	Offered, Admitted, Shed int64
	DeferredTotal           int64
	QueuedAtEnd             int64

	// RequestsDone counts completed requests; WithinSLO those meeting the
	// SLO (all of them when no SLO is set). UnitsDone is their total work.
	RequestsDone, WithinSLO int64
	UnitsDone               int64

	// Latency is the streaming sketch over per-request arrival→completion
	// latencies (queueing included); the P* fields are its quantiles.
	Latency     *stats.QuantileSketch
	LatencyP50  float64
	LatencyP99  float64
	LatencyP999 float64

	// GoodputRPS is SLO-meeting completions per second of makespan.
	GoodputRPS float64
	// ShedRate is Shed / Offered (0 when nothing was offered).
	ShedRate float64
	// SLOViolationAt is the engine time the app's live p99 first exceeded
	// its SLO; -1 when it never did.
	SLOViolationAt float64
}

// ServiceReport is the open-system section of a Report.
type ServiceReport struct {
	// Apps is per-app accounting, policy order.
	Apps []AppServiceStats
	// Offered/Admitted/Shed/QueuedAtEnd are the session totals;
	// Offered == Admitted + Shed + QueuedAtEnd.
	Offered, Admitted, Shed int64
	DeferredTotal           int64
	QueuedAtEnd             int64
	// Horizon is the arrival-stream length the session was configured with.
	Horizon float64
}

// serviceReportFinal builds the Report.Service section at run end.
func (s *Session) serviceReportFinal(makespan float64) *ServiceReport {
	sv := s.svc
	rep := &ServiceReport{
		Apps:          make([]AppServiceStats, len(sv.apps)),
		Offered:       sv.ctrl.Offered(),
		Admitted:      sv.ctrl.Admitted(),
		Shed:          sv.ctrl.Shed(),
		DeferredTotal: sv.ctrl.DeferredTotal(),
		QueuedAtEnd:   sv.ctrl.Deferred(),
		Horizon:       sv.pol.Horizon,
	}
	for i := range sv.apps {
		a := &sv.apps[i]
		st := AppServiceStats{
			Name: a.name, SLOSeconds: a.slo,
			Offered: a.offered, Admitted: a.admitted, Shed: a.shed,
			DeferredTotal: a.deferredEver,
			QueuedAtEnd:   a.offered - a.admitted - a.shed,
			RequestsDone:  a.reqDone, WithinSLO: a.withinSLO, UnitsDone: a.unitsDone,
			SLOViolationAt: a.sloViolAt,
		}
		if a.sketch.Count() > 0 {
			st.Latency = a.sketch
			var lat [3]float64
			a.sketch.QuantilesInto(latencyQuantiles[:], lat[:])
			st.LatencyP50, st.LatencyP99, st.LatencyP999 = lat[0], lat[1], lat[2]
		}
		if makespan > 0 {
			st.GoodputRPS = float64(a.withinSLO) / makespan
		}
		if a.offered > 0 {
			st.ShedRate = float64(a.shed) / float64(a.offered)
		}
		rep.Apps[i] = st
	}
	return rep
}
