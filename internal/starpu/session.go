package starpu

import (
	"context"
	"fmt"
	"math"

	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/health"
	"plbhec/internal/residency"
	"plbhec/internal/stats"
	"plbhec/internal/telemetry"
)

// latencyQuantiles are the standard per-block latency percentiles every
// Report carries (ascending, as QuantilesInto requires).
var latencyQuantiles = [3]float64{0.5, 0.99, 0.999}

// Session is one execution of an application on a cluster under one
// scheduler. It is the handle schedulers use to inspect state and submit
// work — the equivalent of the paper's master-node scheduler context.
type Session struct {
	eng       engine
	clu       *cluster.Cluster
	pus       []*cluster.PU
	profile   device.KernelProfile
	appName   string
	total     int64
	remaining int64
	cursor    int64
	inflight  int
	seq       int
	overheads OverheadModel
	// masterFree is when the master's scheduling computations allow the
	// next data transfer to begin; the simulation engine moves it forward
	// when fit/solve overheads are charged. Always 0 on the live engine,
	// where real computation already takes real time.
	masterFree float64
	chargeOn   bool // whether ChargeFit/ChargeSolve affect the clock

	// ctx, when set, cancels the run: cancellation is observed at every
	// task completion (bounded latency on both engines) and surfaces as a
	// wrapped ctx.Err() from Run. Nil means never cancelled.
	ctx context.Context

	// retry enables the runtime failover machinery: blocks on failed units
	// are aborted and requeued instead of failing the run. Off keeps the
	// legacy fail-fast behavior bit-for-bit.
	retry bool
	// resilience accumulates each unit's fault history for the Report.
	resilience []PUResilience
	// blacklist marks units excluded from requeue targeting; consecFails
	// counts failures since the unit's last recovery and drives it.
	blacklist   []bool
	consecFails []int
	// downSeen marks units whose current failure was already noted, so
	// EvFailover fires once per down-transition however many observers
	// (runtime, scheduler, fault injector) report it.
	downSeen []bool
	// inflightPU counts blocks currently in flight per unit; requeueing
	// targets the least-loaded survivor.
	inflightPU []int

	// health, when non-nil, enables the heartbeat/membership machinery:
	// periodic worker heartbeats, a failure detector over their arrivals,
	// suspicion-driven requeueing, and lease-fenced exactly-once delivery.
	// Always a normalized copy (see HealthPolicy.normalized); nil keeps the
	// legacy oracle-driven behavior bit-for-bit, mirroring retry and spec.
	health *HealthPolicy
	// det is the failure detector over heartbeat arrivals and leases the
	// block-ownership table with fencing tokens; both nil without health.
	det    *health.Detector
	leases *health.LeaseTable
	// suspected marks units the detector currently suspects (excluded from
	// placement until their heartbeats resume); hbGen counts heartbeats per
	// unit so scheduled suspicion checks invalidate on a fresh arrival.
	suspected []bool
	hbGen     []uint64
	// physDownAt is when each unit's device actually failed (-1: alive),
	// the ground truth detection latency is measured against.
	physDownAt []float64
	// partUntil / hbLossUntil hold injected partition and heartbeat-loss
	// horizons per unit (lazily allocated; +Inf: permanent).
	partUntil   []float64
	hbLossUntil []float64
	// hbFn caches each unit's heartbeat closure for the simulator's
	// self-rescheduling pump (one allocation per unit, not per beat).
	hbFn []func()

	// spec, when non-nil, enables the tail-tolerance machinery: watchdog
	// deadlines per block and speculative backup copies for expired ones.
	// Always a normalized copy (see SpeculationPolicy.normalized); nil keeps
	// the legacy behavior bit-for-bit, mirroring retry.
	spec *SpeculationPolicy
	// predict, when set, estimates a block's execution seconds from its
	// unit count (see SetPredictor); watchdog deadlines prefer it over the
	// observed baseline below.
	predict func(pu int, units float64) float64
	// wdMean/wdM2/wdCount are per-unit Welford accumulators over observed
	// seconds-per-unit rates — the watchdog's fallback baseline.
	wdMean, wdM2 []float64
	wdCount      []int64
	// slow marks units soft-blacklisted as stragglers; slowCount counts
	// consecutive watchdog expirations and drives it (see noteExpiry).
	slow      []bool
	slowCount []int
	// fallbacks counts scheduler degradation-ladder transitions by rung
	// label (see NoteFallback); nil until the ladder first engages.
	fallbacks map[string]int64

	// res, when non-nil, enables data-residency tracking: block inputs stay
	// resident on their device, transfers are charged only on a miss, and
	// placement decisions weigh data locality. Nil keeps legacy behavior
	// bit-for-bit, mirroring retry and spec. locStats is the running
	// summary for Report.Locality.
	res      *residency.Tracker
	locStats *LocalityReport
	// linkCover tracks, per link name, the end of the furthest interval
	// emitted so far: emitLink clamps each sample's start to it, so
	// overlapping intervals (requeues, speculative copies, queued live
	// blocks) merge instead of double-counting link occupancy.
	linkCover map[string]float64

	// overheadLog accumulates the fit/solve intervals charged to the
	// master's clock, surfaced as Report.OverheadSpans.
	overheadLog []OverheadSpan

	// svc, when non-nil, puts the session in open-system service mode:
	// requests arrive mid-run on seeded workload streams, several apps with
	// distinct profiles share the session, and admission control bounds the
	// load (see service.go). Nil keeps the closed-system behavior — and the
	// golden record streams — bit-for-bit, mirroring the policies above.
	svc *serviceState

	// freeCopies pools released block copies, unitCopies lists each unit's
	// copies in launch order, and nCopies counts the copies in flight: the
	// copy table of copies.go.
	freeCopies []*blockCopy
	unitCopies []copyList
	nCopies    int

	records       []TaskRecord
	distributions []Distribution
	sched         Scheduler
	violation     error
	// tel is the optional live-telemetry hub; nil means disabled, and
	// every emission site nil-checks first so disabled runs pay nothing.
	tel *telemetry.Telemetry
}

// PUs returns the cluster's processing units in stable order.
func (s *Session) PUs() []*cluster.PU { return s.pus }

// SetContext attaches a cancellation context to the session. Call it
// before Run; once ctx is cancelled the run aborts at the next task
// completion and Run returns an error wrapping ctx.Err(). A nil context
// (the default) never cancels.
func (s *Session) SetContext(ctx context.Context) { s.ctx = ctx }

// AttachTelemetry wires a live-telemetry hub into the session. Call it
// before Run; the engines and schedulers then stream task lifecycle,
// link-occupancy, and decision events to the hub's sinks as they happen.
func (s *Session) AttachTelemetry(t *telemetry.Telemetry) { s.tel = t }

// Telemetry returns the session's hub. It may be nil — telemetry.Telemetry
// methods are nil-safe, so schedulers can emit unconditionally.
func (s *Session) Telemetry() *telemetry.Telemetry { return s.tel }

// emitLink publishes one link-occupancy interval (engine-internal) and
// returns the seconds it newly covers on the link. Per link, each sample's
// start is clamped to the furthest end emitted so far, so overlapping
// intervals — requeued blocks, speculative backup copies, concurrently
// queued live blocks — merge into their union instead of double-counting:
// summed widths can never exceed wall time. Samples fully covered by
// earlier ones (and zero-width ones) are dropped entirely.
func (s *Session) emitLink(name string, start, end float64, units int64) float64 {
	if cover, ok := s.linkCover[name]; ok && start < cover {
		start = cover
	}
	if end <= start {
		return 0
	}
	if s.linkCover == nil {
		s.linkCover = make(map[string]float64, 8)
	}
	s.linkCover[name] = end
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvLinkSample, Time: start, End: end,
			PU: -1, Name: name, Units: units,
		})
	}
	return end - start
}

// Profile returns the application's kernel cost profile.
func (s *Session) Profile() device.KernelProfile { return s.profile }

// Now returns the current engine time in seconds.
func (s *Session) Now() float64 { return s.eng.now() }

// TotalUnits returns the application's total work-unit count.
func (s *Session) TotalUnits() int64 { return s.total }

// Remaining returns the number of units not yet assigned.
func (s *Session) Remaining() int64 { return s.remaining }

// InFlight returns the number of blocks currently assigned but unfinished.
func (s *Session) InFlight() int { return s.inflight }

// Records returns all completed task records so far.
func (s *Session) Records() []TaskRecord { return s.records }

// NextSeq returns the sequence number the next assigned block will carry.
// Schedulers use it to partition in-flight tasks into "before" and "after"
// a synchronization point.
func (s *Session) NextSeq() int { return s.seq }

// Assign submits a block of the given size (in work units, may be
// fractional — it is rounded to the closest valid block size per §III.D) to
// pu. The size is clamped to the remaining work; at least one unit is sent
// while work remains. It returns the number of units actually assigned
// (0 when no work remains).
func (s *Session) Assign(pu *cluster.PU, units float64) int64 {
	if s.remaining <= 0 {
		return 0
	}
	n := int64(math.Round(units))
	if n < 1 {
		n = 1
	}
	if n > s.remaining {
		n = s.remaining
	}
	lo := s.cursor
	hi := lo + n
	s.cursor = hi
	s.remaining -= n
	s.inflight++
	s.inflightPU[pu.ID]++
	seq := s.seq
	s.seq++
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvTaskSubmit, Time: s.eng.now(),
			PU: pu.ID, Seq: seq, Units: n,
		})
	}
	if s.leases != nil {
		s.leases.Grant(seq, pu.ID, lo, hi, 0)
	}
	s.launch(pu.ID, seq, lo, hi, s.masterFree, 0)
	return n
}

// ChargeFit charges one curve-fitting pass to the clock (simulation only).
func (s *Session) ChargeFit() { s.charge(s.overheads.FitSeconds, "fit") }

// ChargeSolve charges one equation-system solve to the clock (simulation
// only).
func (s *Session) ChargeSolve() { s.charge(s.overheads.SolveSeconds, "solve") }

func (s *Session) charge(sec float64, kind string) {
	if !s.chargeOn || sec <= 0 {
		return
	}
	if now := s.eng.now(); now > s.masterFree {
		s.masterFree = now
	}
	start := s.masterFree
	s.masterFree += sec
	s.overheadLog = append(s.overheadLog, OverheadSpan{Kind: kind, Start: start, End: s.masterFree})
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvOverhead, Time: start, End: s.masterFree,
			PU: -1, Name: kind,
		})
	}
}

// ScheduleAt arranges for fn to run at absolute engine time t, serialized
// with scheduler callbacks. Experiments use it to perturb the environment
// mid-run (degrade a device's QoS, fail a machine). Call it before Run or
// from a callback. On the live engine t is wall-clock seconds since the
// session was built and fn runs on the driving goroutine; a callback still
// pending when the last block completes is dropped. A time already past
// runs fn as soon as possible; NaN and +Inf times, which could never fire,
// are rejected.
func (s *Session) ScheduleAt(t float64, fn func()) error {
	if math.IsNaN(t) || math.IsInf(t, 1) {
		return runtimeError("ScheduleAt at %v: the callback could never fire", t)
	}
	s.eng.at(t, fn)
	return nil
}

// RecordDistribution stores a block-size split for later reporting
// (Fig. 6). xs is copied and normalized to sum 1.
func (s *Session) RecordDistribution(label string, xs []float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	norm := make([]float64, len(xs))
	if sum > 0 {
		for i, x := range xs {
			norm[i] = x / sum
		}
	}
	s.distributions = append(s.distributions, Distribution{
		Label: label, Time: s.Now(), X: norm,
	})
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvDistribution, Time: s.Now(),
			PU: -1, Name: label, Shares: norm,
		})
	}
}

// fail aborts the run with a protocol-violation error.
func (s *Session) fail(err error) {
	if s.violation == nil {
		s.violation = err
	}
}

// checkCtx folds a pending cancellation into the violation error.
func (s *Session) checkCtx() {
	if s.ctx == nil || s.violation != nil {
		return
	}
	if err := s.ctx.Err(); err != nil {
		s.fail(fmt.Errorf("starpu: run cancelled: %w", err))
	}
}

// onComplete is invoked by the engine, serialized, for every finished block.
func (s *Session) onComplete(rec TaskRecord) {
	s.inflight--
	s.inflightPU[rec.PU]--
	s.records = append(s.records, rec)
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvTaskComplete, Time: rec.SubmitTime, End: rec.ExecEnd,
			TransferStart: rec.TransferStart, TransferEnd: rec.TransferEnd,
			ExecStart: rec.ExecStart, PU: rec.PU, Seq: rec.Seq, Units: rec.Units,
		})
	}
	s.checkCtx()
	if s.violation != nil {
		return
	}
	s.sched.TaskFinished(s, rec)
	if s.remaining > 0 && s.inflight == 0 {
		s.fail(runtimeError("scheduler %q stalled: %d units remain but nothing in flight",
			s.sched.Name(), s.remaining))
	}
}

// running reports whether the run still has work to finish: it has not
// failed, and units remain unassigned, blocks are in flight, or service
// arrivals are still due. The heartbeat pumps, the suspicion checks and the
// live engine's drive loop all stop when it turns false.
func (s *Session) running() bool {
	if s.violation != nil {
		return false
	}
	if s.remaining > 0 || s.inflight > 0 {
		return true
	}
	sv := s.svc
	return sv != nil && sv.next < len(sv.arrivals)
}

// Run executes the application to completion under sched and returns the
// report.
func (s *Session) Run(sched Scheduler) (*Report, error) {
	if s.sched != nil {
		return nil, runtimeError("session already used; create a new one per run")
	}
	s.checkCtx()
	if s.violation != nil {
		return nil, s.violation
	}
	if s.svc != nil {
		if _, ok := sched.(serviceDispatcher); !ok {
			return nil, runtimeError("service sessions run under the built-in dispatcher "+
				"(ServiceScheduler or RunService), not %q", sched.Name())
		}
	}
	s.sched = sched
	sched.Start(s)
	if s.remaining > 0 && s.inflight == 0 {
		return nil, runtimeError("scheduler %q submitted no initial work", sched.Name())
	}
	if err := s.eng.drive(); err != nil {
		return nil, err
	}
	if s.violation != nil {
		return nil, s.violation
	}
	if s.remaining != 0 {
		return nil, runtimeError("run ended with %d units unprocessed", s.remaining)
	}
	rep := &Report{
		SchedulerName: sched.Name(),
		AppName:       s.appName,
		Records:       s.records,
		Distributions: s.distributions,
		TotalUnits:    s.total,
	}
	for _, rec := range s.records {
		if rec.ExecEnd > rep.Makespan {
			rep.Makespan = rec.ExecEnd
		}
	}
	if s.svc != nil {
		rep.Service = s.serviceReportFinal(rep.Makespan)
	}
	rep.PUNames = make([]string, 0, len(s.pus))
	for _, pu := range s.pus {
		rep.PUNames = append(rep.PUNames, pu.Name())
	}
	rep.SchedulerStats = map[string]float64{}
	if sr, ok := sched.(StatsReporter); ok {
		for k, v := range sr.Stats() {
			rep.SchedulerStats[k] = v
		}
	}
	if st := rep.SchedulerStats; st["solves"] > 0 {
		rep.SolverStats = &SolverStats{
			Solves:       st["solves"],
			ColdStarts:   st["solverSolved"],
			Iterations:   st["solverIterations"],
			SolveSeconds: st["solverSeconds"],
		}
	}
	rep.LinkBusy = s.eng.linkBusy()
	rep.Locality = s.localityReportFinal()
	rep.Resilience = append([]PUResilience(nil), s.resilience...)
	rep.OverheadSpans = append([]OverheadSpan(nil), s.overheadLog...)
	if len(s.records) > 0 {
		sk := stats.NewQuantileSketch()
		for _, rec := range s.records {
			sk.Observe(rec.TotalSeconds())
		}
		rep.Latency = sk
		var lat [3]float64
		sk.QuantilesInto(latencyQuantiles[:], lat[:])
		rep.LatencyP50, rep.LatencyP99, rep.LatencyP999 = lat[0], lat[1], lat[2]
	}
	if len(s.fallbacks) > 0 {
		rep.SolverFallbacks = make(map[string]int64, len(s.fallbacks))
		for k, v := range s.fallbacks {
			rep.SolverFallbacks[k] = v
		}
	}
	return rep, nil
}

func (s *Session) initCommon(total int64) {
	s.total = total
	s.remaining = total
	n := len(s.pus)
	s.resilience = make([]PUResilience, n)
	s.blacklist = make([]bool, n)
	s.consecFails = make([]int, n)
	s.downSeen = make([]bool, n)
	s.inflightPU = make([]int, n)
	// Pre-populate the copy pool to the expected in-flight ceiling (one
	// block per unit, plus speculation headroom): steady-state launches then
	// always pop instead of allocating mid-run.
	s.unitCopies = make([]copyList, n)
	s.freeCopies = make([]*blockCopy, 0, n+16)
	for i := 0; i < n; i++ {
		s.freeCopies = append(s.freeCopies, &blockCopy{s: s})
	}
	if s.spec != nil {
		s.wdMean = make([]float64, n)
		s.wdM2 = make([]float64, n)
		s.wdCount = make([]int64, n)
		s.slow = make([]bool, n)
		s.slowCount = make([]int, n)
	}
	s.initHealth()
	// Pre-size the record log at 64 records per unit, capped at 8192
	// records but never below 8 per unit. This is a starting size, not a
	// bound: the record count depends on the scheduler and the input, and
	// many runs outgrow it. Greedy writes one record per small block, far
	// more than 64 per unit on the paper's inputs, and PLB-HeC at 10,000
	// units writes about 17 per unit against the floor of 8. Those runs
	// grow the log by append, about 1.25× at a time, and the growth copies
	// are most of a closed run's allocation.
	est := 64 * len(s.pus)
	if est > 8192 {
		est = 8192
		if floor := 8 * len(s.pus); floor > est {
			est = floor
		}
	}
	if est > 0 {
		s.records = make([]TaskRecord, 0, est)
	}
}
