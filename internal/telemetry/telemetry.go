// Package telemetry is the runtime's live observability layer: a
// concurrency-safe metrics registry (counters, gauges, histograms with
// fixed exponential buckets — atomic hot paths, no locks on increment) and
// a streaming event bus with pluggable sinks.
//
// Both engines and every scheduler emit events through the bus while a run
// is in flight; sinks project those events into whatever a consumer needs:
//
//   - RunMetrics folds them into the canonical plbhec_* metric set,
//     servable as Prometheus text over HTTP (Handler / ListenAndServe);
//   - PerfettoSink buffers them into a Chrome trace_event JSON file that
//     opens directly in ui.perfetto.dev (one track per processing unit, one
//     per communication link, async slices for scheduler phases);
//   - span.Recorder (internal/telemetry/span) turns them into the causal
//     span arena behind -explain's critical-path attribution.
//
// The whole layer costs ~zero when unused: a nil *Telemetry is a valid
// no-op receiver, and an attached-but-sinkless bus bails out on one atomic
// load per event (see BenchmarkTelemetryDisabled).
package telemetry

import "sync/atomic"

// EventKind labels one runtime event.
type EventKind uint8

// The event kinds emitted by the engines and schedulers.
const (
	// EvTaskSubmit fires when the scheduler assigns a block to a unit.
	// Fields: Time (submission), PU, Seq, Units.
	EvTaskSubmit EventKind = iota
	// EvTaskComplete fires when a block finishes, carrying its whole
	// lifecycle: Time (submission), TransferStart/TransferEnd/ExecStart,
	// End (exec end), PU, Seq, Units.
	EvTaskComplete
	// EvLinkSample is one occupancy interval of a communication link
	// (NIC, PCIe bus, or a live worker's queue): Name, Time, End, Units.
	EvLinkSample
	// EvDistribution is a recorded block-size split: Time, Name (label),
	// Shares (normalized, Σ=1).
	EvDistribution
	// EvPhase marks a scheduler phase transition: Time, Name (the phase
	// entered). The previous phase implicitly ends here.
	EvPhase
	// EvFit reports one per-unit curve fit: Time, PU, Value (RMSE of the
	// execution-time fit), Aux (R²).
	EvFit
	// EvSolve reports one block-size solve: Time, Value (water-filling τ
	// steps), Aux (capacity residual), Name ("waterfill", or "failed" when
	// the solve returned an error). End carries the solve's
	// host wall-clock seconds (not engine time) on successful solves —
	// EvSolve renders as an instant, so the span field is free.
	EvSolve
	// EvCoverage reports modeling-phase data coverage: Time, Value
	// (fraction of the input consumed by probing).
	EvCoverage
	// EvRebalance marks a triggered redistribution: Time, Name (cause:
	// "threshold", "failure", "iteration").
	EvRebalance
	// EvFailover marks a unit observed failed: Time, PU, Name (unit name).
	EvFailover
	// EvKeepAlive marks a stall-prevention assignment: Time, PU.
	EvKeepAlive
	// EvRequeue marks a block moved off a failed unit by the runtime's
	// retry machinery: Time, PU (the unit it left), Seq, Units.
	EvRequeue
	// EvRecovery marks a previously failed unit observed healthy again
	// (brown-out end): Time, PU, Name (unit name).
	EvRecovery
	// EvBlacklist marks a unit excluded from requeue targeting after
	// repeated failures: Time, PU, Name (unit name).
	EvBlacklist
	// EvSpeculate marks one step of the tail-tolerance machinery: Name is
	// "launch" (a watchdog expired on PU and a backup copy of block Seq was
	// launched on unit Value), "win" (the backup finished first), or
	// "wasted" (the original finished first): Time, PU (straggling unit),
	// Seq, Units, Name, Value (backup unit).
	EvSpeculate
	// EvFallback marks a scheduler degradation-ladder transition: Time,
	// PU = -1, Name (the rung entered: "last-good", "hdss", "greedy", or
	// "recovered" when a later solve succeeds again), Value (rung number).
	EvFallback
	// EvOverhead is one master-side scheduling-computation interval charged
	// to the clock (simulation only): Time (start), End, Name ("fit" or
	// "solve"), PU = -1. Transfers queued behind the master wait until End.
	EvOverhead
	// EvResidency marks one residency-cache transaction (locality mode
	// only). Name is "fetch" (a block's handles were charged to PU: Value =
	// handle hits, Aux = handle misses, Units = evictions, Seq = the block)
	// or "invalidate" (a device death wiped PU's resident set: Value =
	// handles dropped, Aux = bytes dropped, Units = handles dropped).
	EvResidency
	// EvAdmission marks one admission decision on an offered service-mode
	// request: Time, Name ("admit", "defer", or "shed"), Units (the
	// request's work units), Value (the owning app's index), PU = -1,
	// Seq = -1 (the block sequence is not assigned until dispatch).
	EvAdmission
	// EvSuspect marks the failure detector crossing its suspicion threshold
	// for a unit: Time, PU, Name (unit name), Value (1 when the suspicion is
	// false — the unit's device is actually alive — 0 otherwise).
	EvSuspect
	// EvRejoin marks a suspected unit heard from again and restored as a
	// placement target: Time, PU, Name (unit name).
	EvRejoin
	// EvFence marks a late completion discarded by lease fencing — a stale
	// copy of a reassigned block delivering after the master moved on:
	// Time, PU (the stale copy's unit), Seq, Units.
	EvFence
	// EvBlacklistLift marks a blacklisted unit restored as a requeue target
	// (recovery or heartbeat rejoin): Time, PU, Name (unit name).
	EvBlacklistLift
)

// String names the kind for sinks and debug output.
func (k EventKind) String() string {
	switch k {
	case EvTaskSubmit:
		return "task-submit"
	case EvTaskComplete:
		return "task-complete"
	case EvLinkSample:
		return "link-sample"
	case EvDistribution:
		return "distribution"
	case EvPhase:
		return "phase"
	case EvFit:
		return "fit"
	case EvSolve:
		return "solve"
	case EvCoverage:
		return "coverage"
	case EvRebalance:
		return "rebalance"
	case EvFailover:
		return "failover"
	case EvKeepAlive:
		return "keep-alive"
	case EvRequeue:
		return "requeue"
	case EvRecovery:
		return "recovery"
	case EvBlacklist:
		return "blacklist"
	case EvSpeculate:
		return "speculate"
	case EvFallback:
		return "fallback"
	case EvOverhead:
		return "overhead"
	case EvResidency:
		return "residency"
	case EvAdmission:
		return "admission"
	case EvSuspect:
		return "suspect"
	case EvRejoin:
		return "rejoin"
	case EvFence:
		return "fence"
	case EvBlacklistLift:
		return "blacklist-lift"
	}
	return "unknown"
}

// Event is one runtime occurrence. It is a flat value type so emission
// never allocates; which fields are meaningful depends on Kind (see the
// kind constants). All times are engine seconds.
type Event struct {
	Kind EventKind
	Time float64 // event time, or span start
	End  float64 // span end (task exec end, link hold end)

	// Task lifecycle detail (EvTaskComplete only).
	TransferStart, TransferEnd, ExecStart float64

	PU    int    // processing-unit ID (-1 when not applicable)
	Seq   int    // submission sequence number
	Units int64  // block size in work units
	Name  string // link/phase/label/cause, per Kind

	Value  float64   // primary payload (RMSE, iterations, coverage...)
	Aux    float64   // secondary payload (R², KKT residual...)
	Shares []float64 // distribution events only
}

// Sink consumes events from the bus. The runtime emits events serialized
// on the driving goroutine, so Consume never runs concurrently with itself
// for sinks attached to one session.
type Sink interface {
	Consume(Event)
}

// Telemetry bundles the metrics registry and the event bus of one run.
// A nil *Telemetry is valid and inert, so instrumented code needs no
// enabled-checks beyond passing the pointer around.
type Telemetry struct {
	reg   *Registry
	sinks atomic.Pointer[[]Sink]
}

// New returns an enabled telemetry hub with a fresh registry.
func New() *Telemetry {
	return &Telemetry{reg: NewRegistry()}
}

// Registry returns the hub's metrics registry (nil on a nil hub).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Attach adds a sink to the bus. No-op on a nil hub. Attach is safe to
// call concurrently with Emit, but sinks should be attached before the run
// starts to observe every event.
func (t *Telemetry) Attach(s Sink) {
	if t == nil || s == nil {
		return
	}
	for {
		old := t.sinks.Load()
		var next []Sink
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, s)
		if t.sinks.CompareAndSwap(old, &next) {
			return
		}
	}
}

// Emit delivers ev to every attached sink. The fast path — nil hub or no
// sinks — is one nil check plus one atomic load, no allocations.
func (t *Telemetry) Emit(ev Event) {
	if t == nil {
		return
	}
	sp := t.sinks.Load()
	if sp == nil {
		return
	}
	for _, s := range *sp {
		s.Consume(ev)
	}
}

// Enabled reports whether at least one sink is attached.
func (t *Telemetry) Enabled() bool {
	return t != nil && t.sinks.Load() != nil
}
