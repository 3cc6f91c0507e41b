package telemetry

import (
	"math"

	"plbhec/internal/stats"
)

// RunMetrics is the canonical event→metric projection: attach one to a
// session's telemetry hub and the registry fills with the plbhec_* metric
// set documented in docs/OBSERVABILITY.md. Per-PU handles are resolved
// once at construction, so consuming an event never takes the registry
// lock.
type RunMetrics struct {
	reg     *Registry
	puNames []string

	submitted, completed []*Counter
	units                []*Counter
	busy, transfer       []*Counter
	inflight             []*Gauge
	fitRMSE, fitR2       []*Gauge

	execHist *Histogram

	// latSketch streams per-block end-to-end latencies (submit→complete)
	// through a fixed-memory quantile sketch; the three gauges are
	// refreshed on every completion so /metrics always shows the current
	// run's p50/p99/p999.
	latSketch    *stats.QuantileSketch
	latGauges    [3]*Gauge
	latQuantiles [3]float64
	latValues    [3]float64

	linkBusy map[string]*Counter

	phases map[string]*Counter
	phase  *Gauge

	fits, solves, coldStarts   *Counter
	solveSeconds               *Counter
	ipmIterations, ipmResidual *Gauge
	coverage                   *Gauge
	distChanges                *Counter
	l1Delta                    *Gauge
	failovers, keepAlives      *Counter
	requeues, recoveries       *Counter
	blacklists                 *Counter
	speculations, specWins     *Counter
	specWasted                 *Counter
	handleHits, handleMisses   *Counter
	handleEvictions            *Counter
	admitted, shed, deferred   *Counter
	suspicions, falseSuspects  *Counter
	rejoins, fenced            *Counter
	blacklistLifts             *Counter

	lastShares []float64
	phaseCodes map[string]int
}

// NewRunMetrics registers the canonical metric set on reg for a run over
// the given processing units (cluster order) and returns the sink.
func NewRunMetrics(reg *Registry, puNames []string) *RunMetrics {
	m := &RunMetrics{
		reg:        reg,
		puNames:    puNames,
		linkBusy:   make(map[string]*Counter),
		phases:     make(map[string]*Counter),
		phaseCodes: make(map[string]int),
	}
	reg.Help("plbhec_tasks_submitted_total", "Blocks assigned to each processing unit")
	reg.Help("plbhec_tasks_completed_total", "Blocks completed by each processing unit")
	reg.Help("plbhec_units_processed_total", "Work units completed by each processing unit")
	reg.Help("plbhec_pu_busy_seconds", "Cumulative kernel-execution seconds per processing unit")
	reg.Help("plbhec_pu_transfer_seconds", "Cumulative data-movement seconds per processing unit")
	reg.Help("plbhec_pu_inflight", "Blocks currently assigned but unfinished per processing unit")
	reg.Help("plbhec_task_exec_seconds", "Distribution of per-block kernel execution times")
	reg.Help("plbhec_task_latency_seconds", "Streaming per-block submit-to-complete latency quantiles")
	reg.Help("plbhec_link_busy_seconds", "Cumulative occupancy seconds per communication link")
	reg.Help("plbhec_sched_phase_transitions_total", "Scheduler phase entries by phase name")
	reg.Help("plbhec_sched_phase", "Current scheduler phase as a numeric code (order of first appearance)")
	reg.Help("plbhec_model_fits_total", "Curve-fitting passes performed")
	reg.Help("plbhec_fit_rmse_seconds", "RMSE of the latest execution-time fit per processing unit")
	reg.Help("plbhec_fit_r2", "R-squared of the latest execution-time fit per processing unit")
	reg.Help("plbhec_ipm_solves_total", "Block-size equation-system solves")
	reg.Help("plbhec_ipm_iterations", "Water-filling tau steps of the latest block-size solve")
	reg.Help("plbhec_ipm_kkt_residual", "Capacity residual |sum x_g(tau) - Total|/Total of the latest block-size solve")
	reg.Help("plbhec_ipm_cold_starts_total", "Successful block-size solves (each starts from scratch)")
	reg.Help("plbhec_solve_seconds", "Cumulative host wall-clock seconds spent in the block-size solver")
	reg.Help("plbhec_model_coverage_ratio", "Fraction of the input consumed by the modeling phase")
	reg.Help("plbhec_distribution_changes_total", "Recorded block-size distributions")
	reg.Help("plbhec_distribution_l1_delta", "L1 distance between the last two recorded distributions")
	reg.Help("plbhec_rebalances_total", "Triggered redistributions by cause")
	reg.Help("plbhec_failovers_total", "Processing units observed failed")
	reg.Help("plbhec_keepalives_total", "Stall-prevention assignments")
	reg.Help("plbhec_requeues_total", "Blocks moved off failed units by the retry machinery")
	reg.Help("plbhec_recoveries_total", "Failed processing units observed healthy again")
	reg.Help("plbhec_blacklists_total", "Processing units excluded from requeueing after repeated failures")
	reg.Help("plbhec_speculations_total", "Backup copies launched for watchdog-expired blocks")
	reg.Help("plbhec_spec_wins_total", "Speculated blocks whose backup copy finished first")
	reg.Help("plbhec_spec_wasted_total", "Speculated blocks whose original copy finished first")
	reg.Help("plbhec_handle_hits_total", "Block-input handles already resident on their target unit (transfer avoided)")
	reg.Help("plbhec_handle_misses_total", "Block-input handles fetched onto their target unit (transfer paid)")
	reg.Help("plbhec_handle_evictions_total", "Resident handles displaced by memory-capacity pressure (LRU)")
	reg.Help("plbhec_admitted_total", "Service-mode requests admitted for immediate dispatch")
	reg.Help("plbhec_shed_total", "Service-mode requests rejected by admission control")
	reg.Help("plbhec_deferred_total", "Service-mode requests parked in the wait queue")
	reg.Help("plbhec_suspicions_total", "Failure-detector suspicion threshold crossings")
	reg.Help("plbhec_false_suspicions_total", "Suspicions raised against units that were actually alive")
	reg.Help("plbhec_rejoins_total", "Suspected units heard from again and restored as placement targets")
	reg.Help("plbhec_fenced_completions_total", "Late completions discarded by lease fencing")
	reg.Help("plbhec_blacklist_lifts_total", "Blacklisted units restored as requeue targets")

	n := len(puNames)
	m.submitted = make([]*Counter, n)
	m.completed = make([]*Counter, n)
	m.units = make([]*Counter, n)
	m.busy = make([]*Counter, n)
	m.transfer = make([]*Counter, n)
	m.inflight = make([]*Gauge, n)
	m.fitRMSE = make([]*Gauge, n)
	m.fitR2 = make([]*Gauge, n)
	for i, name := range puNames {
		l := Label{"pu", name}
		m.submitted[i] = reg.Counter("plbhec_tasks_submitted_total", l)
		m.completed[i] = reg.Counter("plbhec_tasks_completed_total", l)
		m.units[i] = reg.Counter("plbhec_units_processed_total", l)
		m.busy[i] = reg.Counter("plbhec_pu_busy_seconds", l)
		m.transfer[i] = reg.Counter("plbhec_pu_transfer_seconds", l)
		m.inflight[i] = reg.Gauge("plbhec_pu_inflight", l)
		m.fitRMSE[i] = reg.Gauge("plbhec_fit_rmse_seconds", l)
		m.fitR2[i] = reg.Gauge("plbhec_fit_r2", l)
	}
	m.execHist = reg.Histogram("plbhec_task_exec_seconds", ExpBuckets(1e-4, 4, 16))
	m.latSketch = stats.NewQuantileSketch()
	m.latQuantiles = [3]float64{0.5, 0.99, 0.999}
	for i, q := range []string{"0.5", "0.99", "0.999"} {
		m.latGauges[i] = reg.Gauge("plbhec_task_latency_seconds", Label{"quantile", q})
	}
	m.phase = reg.Gauge("plbhec_sched_phase")
	m.fits = reg.Counter("plbhec_model_fits_total")
	m.solves = reg.Counter("plbhec_ipm_solves_total")
	m.coldStarts = reg.Counter("plbhec_ipm_cold_starts_total")
	m.solveSeconds = reg.Counter("plbhec_solve_seconds")
	m.ipmIterations = reg.Gauge("plbhec_ipm_iterations")
	m.ipmResidual = reg.Gauge("plbhec_ipm_kkt_residual")
	m.coverage = reg.Gauge("plbhec_model_coverage_ratio")
	m.distChanges = reg.Counter("plbhec_distribution_changes_total")
	m.l1Delta = reg.Gauge("plbhec_distribution_l1_delta")
	m.failovers = reg.Counter("plbhec_failovers_total")
	m.keepAlives = reg.Counter("plbhec_keepalives_total")
	m.requeues = reg.Counter("plbhec_requeues_total")
	m.recoveries = reg.Counter("plbhec_recoveries_total")
	m.blacklists = reg.Counter("plbhec_blacklists_total")
	m.speculations = reg.Counter("plbhec_speculations_total")
	m.specWins = reg.Counter("plbhec_spec_wins_total")
	m.specWasted = reg.Counter("plbhec_spec_wasted_total")
	m.handleHits = reg.Counter("plbhec_handle_hits_total")
	m.handleMisses = reg.Counter("plbhec_handle_misses_total")
	m.handleEvictions = reg.Counter("plbhec_handle_evictions_total")
	m.admitted = reg.Counter("plbhec_admitted_total")
	m.shed = reg.Counter("plbhec_shed_total")
	m.deferred = reg.Counter("plbhec_deferred_total")
	m.suspicions = reg.Counter("plbhec_suspicions_total")
	m.falseSuspects = reg.Counter("plbhec_false_suspicions_total")
	m.rejoins = reg.Counter("plbhec_rejoins_total")
	m.fenced = reg.Counter("plbhec_fenced_completions_total")
	m.blacklistLifts = reg.Counter("plbhec_blacklist_lifts_total")
	return m
}

// okPU bounds-checks an event's PU index against the known units.
func (m *RunMetrics) okPU(pu int) bool { return pu >= 0 && pu < len(m.puNames) }

// Consume implements Sink.
func (m *RunMetrics) Consume(ev Event) {
	switch ev.Kind {
	case EvTaskSubmit:
		if m.okPU(ev.PU) {
			m.submitted[ev.PU].Inc()
			m.inflight[ev.PU].Add(1)
		}
	case EvTaskComplete:
		if m.okPU(ev.PU) {
			m.completed[ev.PU].Inc()
			m.inflight[ev.PU].Add(-1)
			m.units[ev.PU].Add(float64(ev.Units))
			exec := ev.End - ev.ExecStart
			m.busy[ev.PU].Add(exec)
			m.transfer[ev.PU].Add(ev.TransferEnd - ev.TransferStart)
			m.execHist.Observe(exec)
			m.latSketch.Observe(ev.End - ev.Time)
			m.latSketch.QuantilesInto(m.latQuantiles[:], m.latValues[:])
			for i, g := range m.latGauges {
				g.Set(m.latValues[i])
			}
		}
	case EvLinkSample:
		c, ok := m.linkBusy[ev.Name]
		if !ok {
			c = m.reg.Counter("plbhec_link_busy_seconds", Label{"link", ev.Name})
			m.linkBusy[ev.Name] = c
		}
		c.Add(ev.End - ev.Time)
	case EvDistribution:
		m.distChanges.Inc()
		if m.lastShares != nil && len(m.lastShares) == len(ev.Shares) {
			var d float64
			for i := range ev.Shares {
				d += math.Abs(ev.Shares[i] - m.lastShares[i])
			}
			m.l1Delta.Set(d)
		}
		m.lastShares = append(m.lastShares[:0], ev.Shares...)
	case EvPhase:
		c, ok := m.phases[ev.Name]
		if !ok {
			c = m.reg.Counter("plbhec_sched_phase_transitions_total", Label{"phase", ev.Name})
			m.phases[ev.Name] = c
			m.phaseCodes[ev.Name] = len(m.phaseCodes)
		}
		c.Inc()
		m.phase.Set(float64(m.phaseCodes[ev.Name]))
	case EvFit:
		if m.okPU(ev.PU) {
			m.fitRMSE[ev.PU].Set(ev.Value)
			m.fitR2[ev.PU].Set(ev.Aux)
		} else {
			// PU = -1 marks the pass-level event (one per FitAll).
			m.fits.Inc()
		}
	case EvSolve:
		m.solves.Inc()
		m.ipmIterations.Set(ev.Value)
		m.ipmResidual.Set(ev.Aux)
		m.solveSeconds.Add(ev.End) // End carries the solve's host wall time
		if ev.Name != "failed" {
			m.coldStarts.Inc()
		}
	case EvCoverage:
		m.coverage.Set(ev.Value)
	case EvRebalance:
		cause := ev.Name
		if cause == "" {
			cause = "unspecified"
		}
		m.reg.Counter("plbhec_rebalances_total", Label{"cause", cause}).Inc()
	case EvFailover:
		m.failovers.Inc()
	case EvKeepAlive:
		m.keepAlives.Inc()
	case EvRequeue:
		m.requeues.Inc()
	case EvRecovery:
		m.recoveries.Inc()
	case EvBlacklist:
		m.blacklists.Inc()
	case EvSpeculate:
		// Both copies of a speculated block get an EvTaskSubmit but only the
		// winner completes, so the loser's inflight gauge is settled here:
		// on "win" the loser is the original (ev.PU), on "wasted" the backup
		// (ev.Value).
		switch ev.Name {
		case "win":
			m.specWins.Inc()
			if m.okPU(ev.PU) {
				m.inflight[ev.PU].Add(-1)
			}
		case "wasted":
			m.specWasted.Inc()
			if m.okPU(int(ev.Value)) {
				m.inflight[int(ev.Value)].Add(-1)
			}
		default:
			m.speculations.Inc()
		}
	case EvResidency:
		// Only "fetch" transactions carry hit/miss/eviction counts; an
		// "invalidate" (device death) is a failure signal, not capacity
		// pressure, so it is deliberately not folded into evictions — the
		// counters stay in lockstep with Report.Locality.
		if ev.Name == "fetch" {
			m.handleHits.Add(ev.Value)
			m.handleMisses.Add(ev.Aux)
			m.handleEvictions.Add(float64(ev.Units))
		}
	case EvAdmission:
		// A deferred request emits a second EvAdmission ("admit") when it
		// is dispatched from the queue, so this counter mirrors the
		// controller's Admitted() account exactly.
		switch ev.Name {
		case "admit":
			m.admitted.Inc()
		case "shed":
			m.shed.Inc()
		case "defer":
			m.deferred.Inc()
		}
	case EvSuspect:
		m.suspicions.Inc()
		if ev.Value != 0 {
			m.falseSuspects.Inc()
		}
	case EvRejoin:
		m.rejoins.Inc()
	case EvFence:
		m.fenced.Inc()
	case EvBlacklistLift:
		m.blacklistLifts.Inc()
	}
}
