// Package starpu is a StarPU-like heterogeneous runtime: applications are
// expressed as codelets whose blocks execute on the processing units of a
// cluster, under the control of a pluggable scheduling policy — the same
// surface the paper's implementation uses inside StarPU (§IV).
//
// Two interchangeable engines execute the blocks:
//
//   - the simulation engine runs on a discrete-event clock against the
//     device models of Table I, scaling to the paper's input sizes; and
//   - the live engine runs real Go kernels on real goroutine workers
//     (optionally throttled to emulate heterogeneity), validating the
//     runtime and schedulers end-to-end on actual computation.
//
// One master sits over both engines: the Session owns the copy table, every
// copy of a block in flight, and decides everything about a copy once —
// fencing, the speculation race, watchdogs and their backups, cancel when a
// device dies, revoke when a lease moves, the hold behind a partition. The
// engines only run copies and hand each back when it finished or could not
// run. Both engines keep their timers on the same event queue (sim.Engine):
// the simulator advances it as its virtual clock, the live engine fires it
// from the wall clock on its driving goroutine. Retry backoff, watchdogs,
// heartbeats, service arrivals and ScheduleAt callbacks are therefore one
// mechanism on either engine.
//
// Schedulers see the exact hook surface of the paper's Algorithm 2: they
// submit blocks, and the runtime calls them back with measured transfer and
// execution times each time a processing unit finishes a task.
package starpu

import (
	"errors"
	"fmt"

	"plbhec/internal/stats"
)

// ErrFailedDevice reports a block assigned to a processing unit whose
// device cannot execute it (speed factor 0 after a failure, or a broken
// cost model). Session.Run wraps it into the run error so one bad
// scheduler decision fails its cell instead of the whole process.
var ErrFailedDevice = errors.New("failed or broken device")

// TaskRecord is the measured history of one executed block. All times are
// in engine seconds (virtual for the simulator, wall-clock for the live
// engine).
type TaskRecord struct {
	Seq   int   // submission sequence number
	PU    int   // processing-unit ID within the cluster
	Lo    int64 // first work unit (inclusive)
	Hi    int64 // last work unit (exclusive)
	Units int64 // Hi - Lo

	SubmitTime    float64 // when the scheduler assigned the block
	TransferStart float64 // when data started moving (== SubmitTime if queued immediately)
	TransferEnd   float64 // when data arrived on the device
	ExecStart     float64 // when the kernel started
	ExecEnd       float64 // when the kernel finished (the paper's finish time)
}

// TransferSeconds is the measured data-movement time for the block.
func (r TaskRecord) TransferSeconds() float64 { return r.TransferEnd - r.TransferStart }

// ExecSeconds is the measured kernel time for the block.
func (r TaskRecord) ExecSeconds() float64 { return r.ExecEnd - r.ExecStart }

// TotalSeconds is time from submission to completion, including queueing.
func (r TaskRecord) TotalSeconds() float64 { return r.ExecEnd - r.SubmitTime }

// Scheduler is a load-balancing policy. The runtime guarantees that Start
// and TaskFinished run serialized on the master (never concurrently), like
// StarPU scheduling hooks.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Start is called once; the scheduler must submit initial work.
	Start(s *Session)
	// TaskFinished is called every time a block completes. The scheduler
	// reacts by submitting more work (the paper's FinishedTaskExecution).
	TaskFinished(s *Session, rec TaskRecord)
}

// StatsReporter is optionally implemented by schedulers to expose internal
// counters (fits performed, rebalances, solver time...).
type StatsReporter interface {
	Stats() map[string]float64
}

// OverheadModel charges the master's scheduling computations to the clock.
// The simulation engine advances virtual time by these amounts whenever the
// scheduler reports a fit or a solve, reproducing the paper's inclusion of
// its IPOPT solve (~170 ms) in measured execution time. The live
// engine ignores it — real computation already takes real time.
type OverheadModel struct {
	FitSeconds   float64 // per curve-fitting pass over all PUs
	SolveSeconds float64 // per equation-system solve
}

// DefaultOverheads reflect our measured solver costs (see EXPERIMENTS.md):
// curve fitting is microseconds; the block-size solve is charged at the
// paper's reported 170 ms so simulated schedules carry the same overhead
// the authors measured with IPOPT.
func DefaultOverheads() OverheadModel {
	return OverheadModel{FitSeconds: 2e-3, SolveSeconds: 170e-3}
}

// The retry policy (SimConfig.Retry / LiveConfig.Retry): blocks in flight
// on a unit that fails are aborted and requeued onto a surviving unit after
// a backoff instead of wedging or failing the session, and units that keep
// failing are blacklisted as requeue targets. Without it (the default)
// failures surface as ErrFailedDevice, which keeps scheduler-driven failover
// — and the golden record streams — bit-identical.
const (
	// retryMax bounds how many times one block may be requeued before the
	// run fails with ErrFailedDevice.
	retryMax = 3
	// retryBackoffSeconds is the delay before the first relaunch of a
	// requeued block (engine seconds); each further retry of the same block
	// multiplies it by retryBackoffFactor.
	retryBackoffSeconds = 0.01
	retryBackoffFactor  = 2
	// retryBlacklistAfter is how many consecutive failures charge a unit
	// before it stops receiving requeued blocks. A recovery (brown-out
	// ending) resets the count and lifts the blacklist.
	retryBlacklistAfter = 2
)

// retryBackoff returns the relaunch delay for the given retry ordinal
// (1-based).
func retryBackoff(retry int) float64 {
	d := retryBackoffSeconds
	for i := 1; i < retry; i++ {
		d *= retryBackoffFactor
	}
	return d
}

// SpeculationPolicy configures the runtime's tail tolerance. When a policy
// is attached (SimConfig.Spec / LiveConfig.Spec), every launched block gets
// a watchdog deadline derived from its predicted time — the scheduler's
// fitted model when one is installed (Session.SetPredictor), a
// Welford-streamed observed per-unit-rate baseline otherwise. A block still
// unfinished at its deadline gets a backup copy launched on the
// least-loaded healthy unit; the first copy to finish wins and the loser is
// cancelled deterministically, so every block still completes exactly once.
// Units whose blocks keep expiring are soft-blacklisted as backup/requeue
// targets until they complete a block within deadline again. A nil policy
// (the default) disables all of it and keeps the record stream — including
// the golden hashes — bit-identical, as the retry policy does.
type SpeculationPolicy struct {
	// DeadlineMultiplier scales the predicted block time into the watchdog
	// deadline. Values <= 1 (or non-finite) mean the default 3.
	DeadlineMultiplier float64
	// MinDeadlineSeconds floors every armed deadline so measurement noise
	// on tiny blocks cannot trigger speculation storms. <= 0 or non-finite
	// means the default 1 ms.
	MinDeadlineSeconds float64
	// MinObservations is how many completed blocks a unit needs before its
	// observed baseline may arm watchdogs (ignored when a predictor is
	// installed). <= 0 means the default 3.
	MinObservations int
	// SlowAfter is how many consecutive watchdog expirations mark a unit as
	// a straggler: it stops receiving backups, and receives requeued blocks
	// and service requests only when no other unit qualifies (soft
	// blacklist), until it completes a block within deadline. <= 0 means the
	// default 2.
	SlowAfter int
}

// DefaultSpeculationPolicy returns the policy used by the chaos
// experiments: deadlines at 3× the prediction (floored at 1 ms), baselines
// armed after 3 observations, soft blacklist after 2 consecutive
// expirations.
func DefaultSpeculationPolicy() *SpeculationPolicy {
	return &SpeculationPolicy{
		DeadlineMultiplier: 3, MinDeadlineSeconds: 1e-3,
		MinObservations: 3, SlowAfter: 2,
	}
}

// normalized returns a copy with every zero/invalid field replaced by its
// default, so sessions never consult a half-filled policy.
func (p *SpeculationPolicy) normalized() *SpeculationPolicy {
	if p == nil {
		return nil
	}
	q := *p
	if !(q.DeadlineMultiplier > 1) || q.DeadlineMultiplier > 1e6 {
		q.DeadlineMultiplier = 3
	}
	if !(q.MinDeadlineSeconds > 0) || q.MinDeadlineSeconds > 1e18 {
		q.MinDeadlineSeconds = 1e-3
	}
	if q.MinObservations <= 0 {
		q.MinObservations = 3
	}
	if q.SlowAfter <= 0 {
		q.SlowAfter = 2
	}
	return &q
}

// PUResilience is one unit's fault/recovery history over a run.
type PUResilience struct {
	// Failovers counts down-transitions observed on the unit (a brown-out
	// that ends and re-fires counts each time).
	Failovers int64
	// Recoveries counts up-transitions (failed unit observed healthy).
	Recoveries int64
	// Requeues counts blocks moved off this unit after a failure.
	Requeues int64
	// Failures counts launch failures and in-flight aborts charged to the
	// unit (drives blacklisting).
	Failures int64
	// Blacklisted reports whether the unit ended the run excluded from
	// requeue targeting.
	Blacklisted bool
	// Speculations counts watchdog expirations on the unit that launched a
	// backup copy of its block elsewhere.
	Speculations int64
	// SpecWins counts speculated blocks whose backup copy finished first.
	// SpecWasted counts those whose original outran the backup. Both are
	// charged to the straggling unit; their sum can trail Speculations when
	// a device death settles a race before either copy finishes.
	SpecWins, SpecWasted int64
	// SlowBlacklisted reports whether the unit ended the run
	// soft-blacklisted as a straggler (excluded from backup and requeue
	// targeting until it completes a block within deadline).
	SlowBlacklisted bool
	// Suspicions counts failure-detector threshold crossings against the
	// unit; FalseSuspects is the subset raised while the unit's device was
	// actually alive (partition, heartbeat loss). Zero without a
	// HealthPolicy.
	Suspicions, FalseSuspects int64
	// Rejoins counts suspicions lifted by a resumed heartbeat stream.
	Rejoins int64
	// FencedCompletions counts late completions from this unit discarded by
	// lease fencing after the block was reassigned (the exactly-once cost of
	// a suspicion that fired on a still-computing unit).
	FencedCompletions int64
	// BlacklistLifts counts blacklist exclusions lifted on the unit by a
	// recovery or a heartbeat rejoin.
	BlacklistLifts int64
	// DetectionSeconds accumulates, over true-positive suspicions, the lag
	// between the device actually dying and the detector noticing — the
	// detection latency a heartbeat detector pays where the oracle-driven
	// retry machinery reacts instantly.
	DetectionSeconds float64
}

// OverheadSpan is one master-side scheduling-computation interval charged
// to the simulated clock (a fit or a solve). Spans never overlap: the
// master is a serial resource, so each charge starts at the later of "now"
// and the previous span's end.
type OverheadSpan struct {
	Kind  string  // "fit" or "solve"
	Start float64 // engine seconds
	End   float64
}

// Distribution is a block-size split recorded by a scheduler (Fig. 6).
type Distribution struct {
	Label string    // e.g. "modeling-phase"
	Time  float64   // when it was computed
	X     []float64 // per-PU share, normalized to sum 1
}

// Report is the outcome of one Run.
type Report struct {
	SchedulerName string
	AppName       string
	Makespan      float64 // total engine time to process every unit
	Records       []TaskRecord
	Distributions []Distribution
	PUNames       []string
	TotalUnits    int64
	// SchedulerStats carries every scheduler's Stats() counters at run
	// end (never nil; empty for schedulers with nothing to report), so
	// report consumers need no per-policy special cases.
	SchedulerStats map[string]float64
	// LinkBusy reports the total occupied seconds of each communication
	// link ("B/nic", "B/pcie", ...) over the run — simulation engine only.
	LinkBusy map[string]float64
	// Locality summarizes the residency cache's activity over the run —
	// handle hits/misses/evictions, bytes actually transferred vs avoided,
	// and each unit's final resident footprint. Nil when the session ran
	// without locality (the legacy re-pay-every-transfer behavior).
	Locality *LocalityReport
	// Resilience reports each unit's fault history (cluster order). All
	// zeros when no fault occurred or retry was off.
	Resilience []PUResilience
	// SolverStats summarizes the block-size solver's activity over the run,
	// derived from the scheduler's counters. Nil for schedulers that report
	// no solver activity (greedy, HDSS, Acosta, static).
	SolverStats *SolverStats
	// OverheadSpans lists every fit/solve interval charged to the master's
	// clock, in charge order (simulation engine only; empty on the live
	// engine or when overheads are disabled). The critical-path analyzer
	// uses them to attribute PU stalls to solver overhead.
	OverheadSpans []OverheadSpan
	// Service is the open-system section: per-app request latencies,
	// goodput, shed rates, and admission totals. Nil for closed-system runs
	// (no ServicePolicy attached).
	Service *ServiceReport
	// Latency is the streaming sketch over per-block submit→completion
	// latencies (TaskRecord.TotalSeconds); nil when the run completed no
	// blocks. LatencyP50/P99/P999 are its quantiles at run end.
	Latency    *stats.QuantileSketch
	LatencyP50 float64
	LatencyP99 float64
	// LatencyP999 is the p99.9 per-block latency in seconds.
	LatencyP999 float64
}

// SolverStats summarizes the block-size solver's activity over one run:
// attempts, successes, the water-filling τ steps they took, and the host
// wall time spent. Every solve is a water-filling solve from scratch, so
// WarmStarts and Fallbacks are always 0; they, and the name ColdStarts,
// stay until the repository benchmark, which reads them, is updated.
type SolverStats struct {
	Solves       float64 // attempted equation-system solves (incl. failed)
	WarmStarts   float64 // always 0
	ColdStarts   float64 // successful solves
	Fallbacks    float64 // always 0
	Iterations   float64 // cumulative water-filling τ steps across successful solves
	Evaluations  float64 // cumulative curve evaluations across successful solves
	SolveSeconds float64 // cumulative host wall-clock time in the solver
}

// MeanEvaluations is the average curve-evaluation count per successful
// solve.
func (s SolverStats) MeanEvaluations() float64 {
	if s.ColdStarts > 0 {
		return s.Evaluations / s.ColdStarts
	}
	return 0
}

// MeanIterations is the average τ step count per successful solve.
func (s SolverStats) MeanIterations() float64 {
	if s.ColdStarts > 0 {
		return s.Iterations / s.ColdStarts
	}
	return 0
}

// engine abstracts the two execution backends: a clock, one timer, copy
// launch, the drive loop and link accounting. Everything else about a copy
// in flight — fencing, the speculation race, watchdogs and backups, cancel,
// revoke, the partition hold — is decided once, in the session's copy table
// (copies.go). Every timed mechanism — retry backoff, watchdogs,
// heartbeats, suspicion checks, service arrivals, ScheduleAt — goes through
// at on both engines.
type engine interface {
	now() float64
	// at schedules fn at absolute engine time t (clamped to the engine's
	// timer clock), serialized with every other scheduler callback. The
	// simulator runs it on its discrete-event clock; the live engine runs it
	// on the driving goroutine once the wall clock reaches t.
	at(t float64, fn func())
	// launch starts copy c on its unit, not moving data before earliest, and
	// records on it the two engine facts the session reads: c.cancelBy and
	// the known finish c.rec.ExecEnd. It reports false when the unit cannot
	// run the copy; otherwise the engine later hands the copy to
	// Session.deliver when its kernel finished, or to Session.bounce when the
	// unit turned out unable to run it, serialized with all other scheduler
	// callbacks.
	launch(c *blockCopy, earliest float64) bool
	// drive processes work until no copy and no running work remain.
	drive() error
	// linkBusy reports per-link occupancy in seconds (nil if untracked).
	linkBusy() map[string]float64
}

// runtimeError wraps scheduler protocol violations.
func runtimeError(format string, args ...interface{}) error {
	return fmt.Errorf("starpu: %s", fmt.Sprintf(format, args...))
}
