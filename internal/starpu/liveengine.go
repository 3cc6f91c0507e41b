package starpu

import (
	"sync"
	"time"

	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/sim"
	"plbhec/internal/telemetry"
)

// LiveKernel is a real computation decomposed into work units; Execute must
// be safe to call concurrently on disjoint ranges (all kernels in
// internal/apps are).
type LiveKernel interface {
	Execute(lo, hi int64)
}

// LiveWorkerSpec describes one worker of a live session.
type LiveWorkerSpec struct {
	Name string
	// Slowdown throttles the worker: after executing a block in t seconds
	// it sleeps (Slowdown-1)·t, emulating a device 1/Slowdown as fast.
	// Values < 1 are treated as 1 (no throttling).
	Slowdown float64
	// Parallelism splits each block across this many goroutines — a
	// multicore worker, the live analogue of a multi-core CPU processing
	// one codelet with several threads. Values < 1 are treated as 1.
	Parallelism int
}

// liveEngine executes real kernels on goroutine workers under wall-clock
// time. Completions funnel through one channel and timed callbacks through
// one timer queue; both are processed serially on the driving goroutine, so
// scheduler callbacks stay single-threaded exactly as on the simulation
// engine.
type liveEngine struct {
	session *Session
	kernel  LiveKernel
	// kernels, in service mode, maps app index → kernel; block app indices
	// travel in liveAssign. Nil outside service mode (kernel serves all).
	// Written once before any assignment is sent; the channel send/receive
	// pair orders the write before every worker read.
	kernels []LiveKernel
	// timers is the simulator's event queue reused as the live timer queue,
	// clocked in engine (wall-clock) seconds: retry backoff, watchdog
	// deadlines, heartbeats, suspicion checks, service arrivals and
	// ScheduleAt callbacks all go through at, and drive fires whatever is
	// due. Touched only on the driving goroutine.
	timers   *sim.Engine
	start    time.Time
	workers  []chan liveAssign
	complete chan liveDone
	specs    []LiveWorkerSpec
	// queueBusy accumulates, per worker, the time blocks spent waiting in
	// the worker's channel between submission and pickup. Written only on
	// the driving goroutine (drive), so no lock is needed.
	queueBusy []float64
	// queueName holds each worker's precomputed telemetry label
	// ("<name>/queue"), so per-completion emission never concatenates.
	queueName []string
	// watch tracks watchdog state per in-flight block sequence number
	// (speculation mode only). Touched only on the driving goroutine:
	// launches, completions, and watchdog expirations are all serialized
	// there, so no lock is needed.
	watch map[int]*liveWatch
	// onWorkers counts copies handed to workers whose reports have not come
	// back yet — including losing speculative copies and fenced stale ones,
	// which real kernels cannot interrupt. drive drains them all before it
	// closes the worker channels.
	onWorkers int
}

// liveWatch is the watchdog state of one in-flight block.
type liveWatch struct {
	pu          int // unit the original copy was launched on
	lo, hi      int64
	deadlineSec float64 // engine seconds; the armed watchdog deadline
	// specPU is the backup's unit once speculated, -1 while armed, or -2
	// when disarmed (expired with no healthy target, or the race was
	// settled by a device failure).
	specPU int
	copies int  // live copies of the block (1, or 2 once speculated)
	done   bool // a copy completed and the block was delivered
}

type liveAssign struct {
	seq     int
	lo, hi  int64
	submit  float64
	retries int
	app     int32 // owning app index (service mode; 0 otherwise)
	// token is the copy's fencing token (health mode; 0 otherwise), stamped
	// at submission and echoed back in the completion so a copy whose lease
	// moved while it ran is discarded deterministically.
	token uint64
}

// liveDone is one worker's completion report: the finished record, or — when
// the worker's device was failed at pickup under a retry policy — a bounce
// that the driving goroutine requeues.
type liveDone struct {
	rec     TaskRecord
	failed  bool
	retries int
	token   uint64 // the copy's fencing token, echoed from its liveAssign
}

// LiveConfig configures a live session.
type LiveConfig struct {
	Workers []LiveWorkerSpec
	// TotalUnits is the number of work units in the kernel.
	TotalUnits int64
	// Profile describes the kernel for schedulers that inspect it; only
	// the Name is required in live mode.
	Profile device.KernelProfile
	AppName string
	// Retry, when non-nil, enables runtime failover: blocks picked up by a
	// worker whose device is marked failed bounce back and are requeued on
	// a survivor after the policy's backoff, measured on the wall clock.
	// Real computation cannot be interrupted mid-kernel, so a block already
	// executing when its device is failed still completes. Nil preserves the
	// legacy behavior (failures are ignored entirely).
	Retry *RetryPolicy
	// Spec, when non-nil, enables tail tolerance: blocks that outlive their
	// watchdog deadline get a backup copy on another worker, first
	// completion wins, and the loser's result is discarded. The two copies
	// execute the same unit range concurrently, so the kernel must tolerate
	// duplicate execution of a range (idempotent writes or atomic updates —
	// all kernels in internal/apps qualify). Composes with service mode,
	// where each copy runs its own app's kernel. Nil preserves the legacy
	// behavior exactly.
	Spec *SpeculationPolicy
	// Locality, when non-nil, enables data-residency tracking. Live workers
	// share host memory (no modeled NIC/PCIe), so residency does not change
	// timing; it drives the hit/miss accounting and makes requeue and
	// speculation targets prefer workers that already touched the block's
	// data (warm caches). Nil preserves the legacy behavior exactly.
	Locality *LocalityPolicy
	// DataUnits is the number of distinct data units behind TotalUnits for
	// residency purposes (work unit u reads datum u mod DataUnits). <= 0
	// means TotalUnits — every unit its own datum.
	DataUnits int64
	// Health, when non-nil, enables heartbeat failure detection: workers
	// emit periodic heartbeats as engine timers, a failure detector
	// (phi-accrual or deadline) suspects units whose heartbeats stop, and a
	// suspect's blocks are reassigned under fencing leases — a late result
	// from a falsely-suspected unit is discarded deterministically,
	// preserving exactly-once delivery. Implies Retry (DefaultRetryPolicy
	// when none is set). Nil preserves the legacy behavior exactly.
	Health *HealthPolicy
}

// NewLiveSession builds a session that runs kernel on real goroutine
// workers. Each worker appears to schedulers as one processing unit of a
// synthetic single-CPU machine. Workers share the master's host memory, so
// every machine is master-local: no modeled NIC hop (an unset link would
// otherwise price every transfer to a worker past the first at +Inf).
func NewLiveSession(kernel LiveKernel, cfg LiveConfig) *Session {
	if len(cfg.Workers) == 0 {
		panic("starpu: live session needs at least one worker")
	}
	var machines []*cluster.Machine
	for i, w := range cfg.Workers {
		spec := device.Spec{
			Name: "worker", Kind: device.CPU,
			Cores: 1, ClockGHz: 1, FlopsPerCycle: 1,
		}
		machines = append(machines, &cluster.Machine{
			Name:     w.Name,
			IsMaster: true,
			CPU:      device.New(spec, int64(i), 0),
		})
	}
	clu := cluster.New(machines...)
	s := &Session{
		clu:     clu,
		pus:     clu.PUs(),
		profile: cfg.Profile,
		appName: cfg.AppName,
		retry:   cfg.Retry.normalized(),
		spec:    cfg.Spec.normalized(),
		loc:     cfg.Locality.normalized(),
		health:  cfg.Health.normalized(),
	}
	s.initCommon(cfg.TotalUnits)
	s.memCap = make([]float64, len(s.pus)) // host workers: unlimited memory
	du := cfg.DataUnits
	if du <= 0 {
		du = cfg.TotalUnits
	}
	s.initLocality(du, s.memCap)
	le := &liveEngine{
		session:   s,
		kernel:    kernel,
		timers:    sim.New(),
		start:     time.Now(),
		complete:  make(chan liveDone, 4*len(cfg.Workers)),
		specs:     cfg.Workers,
		queueBusy: make([]float64, len(cfg.Workers)),
	}
	if s.spec != nil {
		le.watch = make(map[int]*liveWatch)
	}
	for _, w := range cfg.Workers {
		le.queueName = append(le.queueName, w.Name+"/queue")
	}
	for i := range cfg.Workers {
		ch := make(chan liveAssign, 16)
		le.workers = append(le.workers, ch)
		go le.workerLoop(i, ch)
	}
	s.eng = le
	s.startHeartbeatPump()
	return s
}

func (e *liveEngine) now() float64 { return time.Since(e.start).Seconds() }

// at queues fn on the timer queue; drive runs it on the driving goroutine
// once the wall clock reaches t. A time already past runs at the next pass.
func (e *liveEngine) at(t float64, fn func()) {
	if now := e.timers.Now(); t < now {
		t = now
	}
	e.timers.At(t, fn)
}

// linkBusy reports per-worker queue occupancy: the time each block spent
// waiting between submission and its worker picking it up. The live engine
// has no modeled NIC/PCIe links, so queue wait is its analogue of link
// contention.
func (e *liveEngine) linkBusy() map[string]float64 {
	out := make(map[string]float64, len(e.specs))
	for i := range e.specs {
		out[e.queueName[i]] = e.queueBusy[i]
	}
	return out
}

// executeParallel splits [lo,hi) into par contiguous stripes executed
// concurrently on k. Kernels in internal/apps are safe on disjoint ranges.
func (e *liveEngine) executeParallel(k LiveKernel, lo, hi int64, par int) {
	n := hi - lo
	if par <= 1 || n < int64(par) {
		k.Execute(lo, hi)
		return
	}
	var wg sync.WaitGroup
	stripe := n / int64(par)
	for g := 0; g < par; g++ {
		a := lo + int64(g)*stripe
		b := a + stripe
		if g == par-1 {
			b = hi
		}
		wg.Add(1)
		go func(a, b int64) {
			defer wg.Done()
			k.Execute(a, b)
		}(a, b)
	}
	wg.Wait()
}

// appOf returns the owning app index of block seq (service mode; 0
// otherwise). Called on the driving goroutine only.
func (e *liveEngine) appOf(seq int) int32 {
	if sv := e.session.svc; sv != nil {
		return sv.blocks[seq].app
	}
	return 0
}

// launch hands block [lo,hi) to pu's worker. A first launch under a
// SpeculationPolicy also arms the block's watchdog when a deadline is
// derivable; requeued copies (retries > 0) are not re-armed.
func (e *liveEngine) launch(pu *cluster.PU, seq int, lo, hi int64, earliest float64, retries int) {
	s := e.session
	s.fetchBytes(pu.ID, seq, lo, hi)
	if s.spec != nil && retries == 0 {
		if wd := s.watchdogDeadline(pu.ID, hi-lo); wd > 0 {
			w := &liveWatch{pu: pu.ID, lo: lo, hi: hi, deadlineSec: e.now() + wd, specPU: -1, copies: 1}
			e.watch[seq] = w
			e.at(w.deadlineSec, func() { e.watchdogFire(seq, w) })
		}
	}
	e.send(pu.ID, seq, lo, hi, retries, s.leaseTokenFor(pu.ID, seq))
}

// send hands one copy of block seq to worker pu, stamped with the block's
// owning app and the copy's fencing token. It never blocks drive: when the
// worker's queue is full, a goroutine finishes the handoff while
// completions keep draining.
func (e *liveEngine) send(pu, seq int, lo, hi int64, retries int, token uint64) {
	a := liveAssign{
		seq: seq, lo: lo, hi: hi, submit: e.now(), retries: retries,
		app: e.appOf(seq), token: token,
	}
	e.onWorkers++
	select {
	case e.workers[pu] <- a:
	default:
		go func(ch chan liveAssign) { ch <- a }(e.workers[pu])
	}
}

// abortInFlight implements engine. The live engine cannot interrupt a real
// kernel mid-execution; failures are instead detected at pickup (see
// workerLoop), so blocks still queued on the failed worker bounce back as
// they are reached.
func (e *liveEngine) abortInFlight(pu int) {}

// dropInFlight implements engine. Same physical constraint as
// abortInFlight: a failed worker's copies surface on their own — queued
// blocks bounce at pickup, an executing kernel still completes — and their
// accounts settle where they surface (handleDone), so there is nothing to
// destroy eagerly here.
func (e *liveEngine) dropInFlight(pu int) {}

// revokeCopies implements engine. The lease pu held on seq moved, so pu's
// copy — queued, executing, or a bounce in transit — is now stale: its
// per-unit in-flight account settles here, and its eventual surfacing is
// fenced (success) or absorbed (bounce) without further settlement. A copy
// the bounce path already destroyed left a lost record and counts zero.
func (e *liveEngine) revokeCopies(pu, seq int) int {
	s := e.session
	if _, ok := s.lost[pu][seq]; ok {
		return 0
	}
	s.inflightPU[pu]--
	if w := e.watch[seq]; w != nil {
		w.copies--
		if w.specPU == pu {
			w.specPU = -2
		}
		if w.copies == 0 {
			delete(e.watch, seq)
		}
	}
	return 1
}

// drive is the live engine's one loop. Each pass fires every due timer,
// then waits on the next completion or the next timer, whichever comes
// first. It runs while any copy is still on a worker and, on a healthy run,
// while blocks are in flight or service arrivals remain; timers still
// queued after that are dropped. A fired timer leaves the queue, so a
// deadline in the past cannot spin the loop.
func (e *liveEngine) drive() error {
	var timer *time.Timer
	for {
		e.timers.RunUntil(e.now())
		if !e.running() {
			break
		}
		var wake <-chan time.Time
		if t, ok := e.timers.NextTime(); ok {
			d := time.Duration((t - e.now()) * float64(time.Second))
			if timer == nil {
				timer = time.NewTimer(d)
			} else {
				// A stale tick from an earlier wait costs one spurious pass
				// at most: timers fire from the queue, never from the tick.
				timer.Reset(d)
			}
			wake = timer.C
		}
		select {
		case d := <-e.complete:
			e.handleDone(d)
		case <-wake:
		}
	}
	if timer != nil {
		timer.Stop()
	}
	for _, ch := range e.workers {
		close(ch)
	}
	return nil
}

// running reports whether drive still has something to wait for. Copies on
// workers always drain. A failed run waits for nothing else: a block parked
// on its lease or waiting out a backoff would never be delivered.
func (e *liveEngine) running() bool {
	s := e.session
	if e.onWorkers > 0 {
		return true
	}
	if s.violation != nil {
		return false
	}
	sv := s.svc
	return s.inflight > 0 || (sv != nil && sv.next < len(sv.arrivals))
}

// watchdogFire runs at a block's watchdog deadline. Unless the block was
// delivered, speculated, or requeued meanwhile, the expiry is charged to the
// straggling worker and a backup copy goes to the least-loaded healthy one.
func (e *liveEngine) watchdogFire(seq int, w *liveWatch) {
	if e.watch[seq] != w || w.done || w.specPU != -1 {
		return
	}
	s := e.session
	s.noteExpiry(w.pu)
	target := s.pickSpecTarget(w.pu, w.lo, w.hi)
	if target < 0 {
		w.specPU = -2 // nowhere healthy to speculate; wait it out
		return
	}
	w.specPU = target
	w.copies++
	s.fetchBytes(target, seq, w.lo, w.hi)
	s.inflightPU[target]++
	s.noteSpeculate(w.pu, target, seq, w.hi-w.lo)
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvTaskSubmit, Time: e.now(),
			PU: target, Seq: seq, Units: w.hi - w.lo,
		})
	}
	e.send(target, seq, w.lo, w.hi, 0, s.grantSpecLease(seq, target))
}

// handleDone processes one completion report: stray losers of settled
// races drain first, then bounces, then fencing admission, then delivery.
// Blocks without watchdog state (no SpeculationPolicy, no derivable
// deadline, or a requeued copy) take the same path with w == nil.
func (e *liveEngine) handleDone(d liveDone) {
	e.onWorkers--
	s := e.session
	rec := d.rec
	w := e.watch[rec.Seq]
	if w != nil && w.done {
		// The losing copy of an already-delivered block surfacing: its
		// result is discarded, only its accounts settle. Spec-race losers
		// resolve here, before the fencing admission check — losing a race
		// is not a fence event.
		w.copies--
		s.inflightPU[rec.PU]--
		if w.copies == 0 {
			delete(e.watch, rec.Seq)
		}
		return
	}
	if d.failed {
		if s.leases != nil {
			e.handleFailedLease(d, w)
			return
		}
		s.NoteDeviceDown(rec.PU)
		if w != nil && w.copies > 1 {
			// One copy bounced off a failed device but its twin is alive:
			// the twin completes the block, so no requeue. The race is
			// settled without a win/wasted outcome, as on the sim engine.
			w.copies--
			w.specPU = -2
			s.inflightPU[rec.PU]--
			return
		}
		// Sole copy bounced: requeue it. Its watchdog state is obsolete
		// (requeued copies are not re-armed).
		delete(e.watch, rec.Seq)
		s.requeueBlock(rec.PU, rec.Seq, rec.Lo, rec.Hi, d.retries)
		return
	}
	if s.leases != nil && !s.admitCompletion(rec.PU, rec.Seq, d.token) {
		// Fenced: a stale copy of a reassigned block completing after its
		// lease moved. Its result is discarded — the fresh copy delivers
		// exactly once — and its accounts were settled at revoke time.
		s.noteFenced(rec.PU, rec.Seq, rec.Units)
		return
	}
	withinDeadline := false
	if w != nil {
		// First completion wins.
		w.done = true
		w.copies--
		if w.specPU >= 0 {
			s.noteSpecResolved(w.pu, w.specPU, rec.Seq, rec.Units, rec.PU == w.specPU)
		}
		if w.copies == 0 {
			delete(e.watch, rec.Seq)
		}
		withinDeadline = rec.ExecEnd <= w.deadlineSec
	}
	if rec.TransferEnd > rec.TransferStart {
		// emitLink merges overlapping queue-wait intervals per worker, so
		// concurrently queued blocks cannot push LinkBusy past wall time.
		e.queueBusy[rec.PU] += s.emitLink(e.queueName[rec.PU],
			rec.TransferStart, rec.TransferEnd, rec.Units)
	}
	s.observeBlock(rec.PU, rec.Units, rec.ExecEnd-rec.SubmitTime, withinDeadline)
	s.onComplete(rec)
}

// handleFailedLease absorbs a bounce under a HealthPolicy. A stale copy —
// its lease already moved — was settled at revoke time and needs nothing
// more. A copy still holding its lease is destroyed and
// settled now, but the block itself stays parked on the lease until the
// failure detector suspects the unit (or it recovers and the lost-block
// recovery path requeues it): the oracle signal at pickup must not
// shortcut detection latency, exactly as on the sim engine. The one
// exception is a unit the detector already ruled on — a fresh assignment
// bounced off an already-suspected unit would otherwise wait for a second
// suspicion that never comes, so it moves immediately.
func (e *liveEngine) handleFailedLease(d liveDone, w *liveWatch) {
	s := e.session
	s.NoteDeviceDown(d.rec.PU)
	if !s.copyHoldsLease(d.rec.PU, d.rec.Seq, d.token) {
		return
	}
	s.inflightPU[d.rec.PU]--
	s.markLost(d.rec.PU, d.rec.Seq)
	if w != nil {
		w.copies--
		if w.specPU == d.rec.PU {
			w.specPU = -2
		}
		if w.copies == 0 {
			delete(e.watch, d.rec.Seq)
		}
	}
	if s.suspected[d.rec.PU] {
		s.reassignLease(d.rec.PU, d.rec.Seq)
	}
}

func (e *liveEngine) workerLoop(id int, ch chan liveAssign) {
	slow := e.specs[id].Slowdown
	par := e.specs[id].Parallelism
	if par < 1 {
		par = 1
	}
	dev := e.session.pus[id].Dev
	bounce := e.session.retry != nil
	for a := range ch {
		if bounce && dev.Failed() {
			e.complete <- liveDone{
				rec: TaskRecord{Seq: a.seq, PU: id, Lo: a.lo, Hi: a.hi,
					Units: a.hi - a.lo, SubmitTime: a.submit},
				failed: true, retries: a.retries, token: a.token,
			}
			continue
		}
		k := e.kernel
		if e.kernels != nil {
			k = e.kernels[a.app]
		}
		t0 := e.now()
		e.executeParallel(k, a.lo, a.hi, par)
		t1 := e.now()
		if slow > 1 {
			time.Sleep(time.Duration(float64(time.Second) * (slow - 1) * (t1 - t0)))
		}
		t2 := e.now()
		e.complete <- liveDone{rec: TaskRecord{
			Seq: a.seq, PU: id, Lo: a.lo, Hi: a.hi, Units: a.hi - a.lo,
			SubmitTime: a.submit, TransferStart: a.submit, TransferEnd: t0,
			ExecStart: t0, ExecEnd: t2,
		}, token: a.token}
	}
}
