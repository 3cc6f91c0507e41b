package starpu

import (
	"math"
	"sync"
	"time"

	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/sim"
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
	// kernels, in service mode, maps app index → kernel; nil outside
	// service mode (kernel serves all). Written once before any copy is
	// sent; the channel send/receive pair orders the write before every
	// worker read.
	kernels []LiveKernel
	// timers is the simulator's event queue reused as the live timer queue,
	// clocked in engine (wall-clock) seconds: retry backoff, watchdog
	// deadlines, heartbeats, suspicion checks, service arrivals, partition
	// holds and ScheduleAt callbacks all go through at, and drive fires
	// whatever is due. Touched only on the driving goroutine.
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
}

// liveAssign hands a worker one copy and the kernel of its block's app. The
// worker reads only the copy's range; every other field of the copy belongs
// to the driving goroutine.
type liveAssign struct {
	c *blockCopy
	k LiveKernel
}

// liveDone is one worker's report on a copy: when its kernel started and
// ended, or failed when the worker's device was down at pickup under a
// retry policy.
type liveDone struct {
	c          *blockCopy
	failed     bool
	start, end float64
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
	// Retry enables runtime failover: blocks picked up by a worker whose
	// device is marked failed bounce back and are requeued on a survivor
	// after the retry backoff, measured on the wall clock. Real computation
	// cannot be interrupted mid-kernel, so a block already executing when
	// its device is failed still completes. Off preserves the legacy
	// behavior (failures are ignored entirely).
	Retry bool
	// Spec, when non-nil, enables tail tolerance: blocks that outlive their
	// watchdog deadline get a backup copy on another worker, first
	// completion wins, and the loser's result is discarded. The two copies
	// execute the same unit range concurrently, so the kernel must tolerate
	// duplicate execution of a range (idempotent writes or atomic updates —
	// all kernels in internal/apps qualify). Composes with service mode,
	// where each copy runs its own app's kernel. Nil preserves the legacy
	// behavior exactly.
	Spec *SpeculationPolicy
	// Locality enables data-residency tracking, every work unit its own
	// datum. Live workers share host memory (no modeled NIC/PCIe), so
	// residency does not change timing; it drives the hit/miss accounting
	// and makes requeue and speculation targets prefer workers that already
	// touched the block's data (warm caches). Off preserves the legacy
	// behavior exactly.
	Locality bool
	// Health, when non-nil, enables heartbeat failure detection: workers
	// emit periodic heartbeats as engine timers, a failure detector
	// (phi-accrual or deadline) suspects units whose heartbeats stop, and a
	// suspect's blocks are reassigned under fencing leases — a late result
	// from a falsely-suspected unit is discarded deterministically,
	// preserving exactly-once delivery. Implies Retry. Nil preserves the
	// legacy behavior exactly.
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
		retry:   cfg.Retry,
		spec:    cfg.Spec.normalized(),
		health:  cfg.Health.normalized(),
	}
	s.initCommon(cfg.TotalUnits)
	if cfg.Locality {
		s.initLocality(cfg.TotalUnits, nil) // host workers: unlimited memory
	}
	le := &liveEngine{
		session:   s,
		kernel:    kernel,
		timers:    sim.New(),
		start:     time.Now(),
		complete:  make(chan liveDone, 4*len(cfg.Workers)),
		specs:     cfg.Workers,
		queueBusy: make([]float64, len(cfg.Workers)),
	}
	for _, w := range cfg.Workers {
		le.queueName = append(le.queueName, w.Name+"/queue")
	}
	s.initLinks(len(cfg.Workers))
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

// launch hands copy c to its unit's worker. A live copy's finish time is
// unknown until the worker reports, and a real kernel cannot be
// interrupted, so the copy is never cancellable. The handoff never blocks
// drive: when the worker's queue is full, a goroutine finishes it while
// completions keep draining.
func (e *liveEngine) launch(c *blockCopy, earliest float64) bool {
	s := e.session
	s.fetchBytes(c.rec.PU, c.rec.Seq, c.rec.Lo, c.rec.Hi)
	c.rec.TransferStart = c.rec.SubmitTime
	c.rec.ExecEnd = math.Inf(1)
	a := liveAssign{c: c, k: e.kernel}
	if e.kernels != nil {
		a.k = e.kernels[s.svc.blocks[c.rec.Seq].app]
	}
	select {
	case e.workers[c.rec.PU] <- a:
	default:
		go func(ch chan liveAssign) { ch <- a }(e.workers[c.rec.PU])
	}
	return true
}

// drive is the live engine's one loop. Each pass fires every due timer,
// then waits on the next completion or the next timer, whichever comes
// first. It runs while any copy is still in the copy table — on a worker,
// or held behind a partition — and while the session is running; timers
// still queued after that are dropped. A fired timer leaves the queue, so a
// deadline in the past cannot spin the loop.
func (e *liveEngine) drive() error {
	s := e.session
	var timer *time.Timer
	for {
		e.timers.RunUntil(e.now())
		if s.nCopies == 0 && !s.running() {
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

// handleDone hands one worker report back to the session: a bounce, or a
// finished copy with its measured times. The time a copy waited in the
// worker's queue is the live engine's analogue of link occupancy.
func (e *liveEngine) handleDone(d liveDone) {
	s := e.session
	c := d.c
	if d.failed {
		s.bounce(c)
		return
	}
	c.rec.TransferEnd, c.rec.ExecStart, c.rec.ExecEnd = d.start, d.start, d.end
	if c.state == copyRunning && d.start > c.rec.TransferStart {
		// emitLink merges overlapping queue-wait intervals per worker, so
		// concurrently queued blocks cannot push LinkBusy past wall time.
		e.queueBusy[c.rec.PU] += s.emitLink(c.rec.PU, e.queueName[c.rec.PU],
			c.rec.TransferStart, d.start, c.rec.Units)
	}
	s.deliver(c)
}

func (e *liveEngine) workerLoop(id int, ch chan liveAssign) {
	slow := e.specs[id].Slowdown
	par := e.specs[id].Parallelism
	if par < 1 {
		par = 1
	}
	dev := e.session.pus[id].Dev
	bounce := e.session.retry
	for a := range ch {
		lo, hi := a.c.rec.Lo, a.c.rec.Hi
		if bounce && dev.Failed() {
			e.complete <- liveDone{c: a.c, failed: true}
			continue
		}
		t0 := e.now()
		e.executeParallel(a.k, lo, hi, par)
		t1 := e.now()
		if slow > 1 {
			time.Sleep(time.Duration(float64(time.Second) * (slow - 1) * (t1 - t0)))
		}
		e.complete <- liveDone{c: a.c, start: t0, end: e.now()}
	}
}
