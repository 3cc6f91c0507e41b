package sched

import (
	"math"

	"plbhec/internal/device"
	"plbhec/internal/ipm"
	"plbhec/internal/profile"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// emitPhase publishes a scheduler phase transition on the session's
// telemetry bus (a no-op without an attached hub).
func emitPhase(s *starpu.Session, name string) {
	s.Telemetry().Emit(telemetry.Event{
		Kind: telemetry.EvPhase, Time: s.Now(), PU: -1, Name: name,
	})
}

// emitFit publishes one curve-fitting pass: a per-unit event carrying that
// unit's RMSE (Value) and R² (Aux) for every unit not skipped (the pass did
// not fit those), then one pass-level event (PU = -1) carrying the worst R²
// so sinks can count passes exactly once.
func emitFit(s *starpu.Session, ms profile.Models, skip []bool) {
	tel := s.Telemetry()
	if !tel.Enabled() {
		return
	}
	now := s.Now()
	for i := range ms.PU {
		if skip[i] {
			continue
		}
		tel.Emit(telemetry.Event{
			Kind: telemetry.EvFit, Time: now, PU: i,
			Value: ms.RMSE[i], Aux: ms.PU[i].R2(),
		})
	}
	tel.Emit(telemetry.Event{Kind: telemetry.EvFit, Time: now, PU: -1, Value: ms.MinR2})
}

// PLBHeC is the paper's scheduler (Algorithm 2). It runs three phases:
//
//  1. Performance modeling (§III.B, Algorithm 1): every unit probes on its
//     own, with no round barrier, so no unit waits for the slowest one. Its
//     first probe is InitialBlockSize; when probe k finishes, probe k+1
//     starts at once with multiplier 2^k, scaled by the unit's last
//     measured rate over the fastest rate seen at that stage, so a unit's
//     probes take about as long as the fastest unit's. Least-squares fits of
//     F_p and G_p start once the units holding fewer than need (at first 4)
//     samples can carry at most lateShare of the estimated throughput; a
//     fit below R² 0.7, or probes far smaller than the blocks the fit will
//     size, raises need by one. The 20% data cap starts the execution phase
//     whatever the fit.
//  2. Block-size selection (§III.C): the fitted equation system (Eq. 5) is
//     solved by water-filling under Σx = remaining, x ≥ 0,
//     equal-finish-time conditions; unit g receives blocks of size
//     x_g/ExecutionSteps. Units with fewer than minProbes samples are left
//     out, like dead ones: they keep probing and join at the next
//     rebalance.
//  3. Execution and rebalancing (§III.D): units re-request blocks of their
//     selected size asynchronously; if two units' task finish times drift
//     apart by more than Threshold × (typical block time), and the spread
//     over the rounds left would save more than the fit and solve the
//     session charges for a rebalance, the scheduler refits the curves with
//     all accumulated samples, re-solves, and redistributes after a
//     synchronization — units that detect the threshold still receive one
//     filler task while the others drain (Fig. 3). A detection that would
//     not pay back keeps the distribution; a unit's failure always
//     redistributes. Probes in flight do not hold up the synchronization.
type PLBHeC struct {
	Config
	// Threshold is the rebalancing trigger as a fraction of a block's
	// execution time (paper default: 10%).
	Threshold float64
	// ExecutionSteps splits each computed distribution into this many
	// same-proportion tasks per unit, giving the execution phase the
	// repeated-task structure of Fig. 3.
	ExecutionSteps int
	// Solver is passed to ipm.NewSolver, which ignores it: the water-filling
	// solver has nothing to tune.
	//
	// Deprecated: kept so that existing callers compile.
	Solver ipm.Options

	// solver is the run's block-size solver; its workspaces carry across
	// solves.
	solver *ipm.Solver
	// curves is the solve's curve slice, rebuilt from models at each solve.
	curves []ipm.Curve
	// failSolves makes every solve fail, so tests can drive the failed-solve
	// branch.
	failSolves bool

	phase     int // modeling, executing, draining
	sampler   *profile.Sampler
	models    profile.Models
	modelsOK  bool
	usedUnits float64 // units consumed by the modeling phase

	// Per-unit probing. need is the sample count every probed unit must
	// reach before the first fit; it starts at minProbes and grows by one
	// per rejected fit. probeOwner maps the sequence number of each probe in
	// flight to the unit it was sent to (a requeued or speculated probe may
	// finish elsewhere), and inProbe marks the units with one in flight.
	need       int
	probeOwner map[int]int
	inProbe    []bool
	// rate is each unit's throughput over its last finished block (units/s,
	// 0 before the first); rateSum sums it over live units and needRate
	// over live units holding need samples.
	rate              []float64
	rateSum, needRate float64
	// level is the multiplier exponent of each unit's latest probe, and
	// levelRate[j] the fastest rate a probe of level j has run at.
	level     []int
	levelRate [maxProbes]float64
	// unprobed counts live units still inside their first probe and ready
	// those holding minProbes samples or more.
	unprobed, ready int
	// late marks live units left out of the current distribution because
	// they held fewer than minProbes samples when it was solved; skip is
	// dead || late, the mask of units the fits and solves leave out.
	late, skip []bool
	joined     []int // scratch: units a rebalance lets in

	share      []float64 // normalized distribution x_g (recorded for Fig. 6)
	blockUnits []float64 // per-PU execution block size
	// roundTotal is Σ blockUnits (one execution round's worth of work),
	// re-summed in index order at every write to blockUnits.
	roundTotal float64
	lastDur    []float64 // per-PU most recent full-block duration
	// durs holds the extremes of lastDur over the units that take part in
	// imbalance detection (see trackDur).
	durs       durRange
	blockTime  float64 // EMA of execution-phase task durations
	rebalance  bool
	rebalCause string // why the pending rebalance triggered (telemetry)
	overCount  int    // consecutive threshold detections (debounce)
	// drainSeq and drainOld implement the synchronization of Fig. 3: tasks
	// submitted before the threshold detection (Seq < drainSeq) must
	// complete before the refit/re-solve; units stay fed with same-size
	// filler tasks in the meantime so nobody idles through the drain.
	drainSeq int
	drainOld int
	// thrScale adaptively widens the threshold: when a rebalance re-solves
	// to (nearly) the same distribution, the observed imbalance is
	// model-limited — re-synchronizing again would thrash without
	// improving anything, so the tolerance doubles.
	thrScale  float64
	prevShare []float64
	// dead marks processing units observed failed (speed factor 0); they
	// are excluded from further block-size selections — the paper's §VI
	// fault-tolerance scenario ("a simple redistribution of the data among
	// the remaining devices").
	dead []bool
	// failEpoch is the device.FailureEpoch value read before the last
	// failure scan; scanFailures rescans only once the epoch moves.
	failEpoch uint64
	// regime tracks, per unit, the EMA ratio of measured to model-predicted
	// block times. A sustained drift means the unit's speed changed (cloud
	// QoS); the sample history is rescaled before the rebalance refit so
	// the fit sees one consistent regime.
	regime []float64

	stats plbStats
	// firstModels snapshots the models used by the first solve (debugging
	// and the Fig. 1 reproduction inspect them).
	firstModels profile.Models
}

// FirstModels returns the models fitted at the end of the modeling phase.
func (p *PLBHeC) FirstModels() profile.Models { return p.firstModels }

type plbStats struct {
	fits, solves, rebalances float64
	// declined counts threshold detections whose rebalance would not have
	// paid back its charged fit and solve.
	declined      float64
	solverSeconds float64
	// solved counts successful solves, steps the water-filling τ steps
	// they took and evals their curve evaluations.
	solved, steps, evals float64
	// modelRounds is the fewest samples held by a unit that takes part in
	// the first solve.
	modelRounds float64
	failures    float64
}

const (
	phaseModeling = iota
	phaseExecuting
	phaseDraining
)

const (
	// modelDataCap stops the modeling phase once this fraction of the data
	// has been consumed (paper: 20%).
	modelDataCap = 0.20
	// minProbes is the number of samples a unit needs to take part in a
	// solve: the paper's four probing rounds, counted per unit.
	minProbes = 4
	// maxProbes bounds need (safety net beyond the data cap): a fit with
	// every probed unit at maxProbes samples starts the execution phase
	// whatever its quality.
	maxProbes = 12
	// lateShare is the largest share of the estimated throughput the units
	// short of need samples may carry when the first solve starts without
	// them.
	lateShare = 0.05
	// coverageFactor: probing continues while a unit's anticipated
	// execution block exceeds this multiple of its largest probe.
	coverageFactor = 16
)

// NewPLBHeC returns the scheduler with the paper's defaults.
func NewPLBHeC(cfg Config) *PLBHeC {
	return &PLBHeC{
		Config:         cfg,
		Threshold:      0.10,
		ExecutionSteps: 4,
	}
}

// Name implements starpu.Scheduler.
func (p *PLBHeC) Name() string { return "plb-hec" }

// Stats implements starpu.StatsReporter.
func (p *PLBHeC) Stats() map[string]float64 {
	return map[string]float64{
		"fits":               p.stats.fits,
		"solves":             p.stats.solves,
		"rebalances":         p.stats.rebalances,
		"rebalancesDeclined": p.stats.declined,
		"solverSeconds":      p.stats.solverSeconds,
		"solverSolved":       p.stats.solved,
		"solverIterations":   p.stats.steps,
		"solverEvals":        p.stats.evals,
		"modelRounds":        p.stats.modelRounds,
		"modelUnits":         p.usedUnits,
		"failures":           p.stats.failures,
	}
}

// Start sends every unit its first probe, a block of InitialBlockSize.
func (p *PLBHeC) Start(s *starpu.Session) {
	n := len(s.PUs())
	p.sampler = profile.NewSampler(n)
	p.probeOwner = make(map[int]int, n)
	p.inProbe = make([]bool, n)
	p.rate = make([]float64, n)
	p.level = make([]int, n)
	p.late = make([]bool, n)
	p.skip = make([]bool, n)
	p.lastDur = make([]float64, n)
	p.durs = newDurRange(n)
	p.share = make([]float64, n)
	p.blockUnits = make([]float64, n)
	p.dead = make([]bool, n)
	// One less than the current epoch: the first completion always scans,
	// which catches units that died before the run started.
	p.failEpoch = device.FailureEpoch() - 1
	p.regime = make([]float64, n)
	for i := range p.regime {
		p.regime[i] = 1
	}
	p.solver = ipm.NewSolver(p.Solver)
	p.phase = phaseModeling
	p.need = minProbes
	p.unprobed = n
	p.thrScale = 1
	emitPhase(s, "modeling")

	for i := range s.PUs() {
		p.probe(s, i)
	}
}

// TaskFinished dispatches on the current phase; a finished probe goes to
// its unit's probing sequence whatever the phase.
func (p *PLBHeC) TaskFinished(s *starpu.Session, rec starpu.TaskRecord) {
	if p.scanFailures(s) && p.phase == phaseExecuting && s.Remaining() > 0 {
		// A unit died: force a redistribution over the survivors.
		p.rebalance = true
		p.rebalCause = "failure"
	}
	// The fields are read directly: the TaskRecord methods have value
	// receivers, and each call would copy the record.
	p.sampler.Add(rec.PU, float64(rec.Units), rec.ExecEnd-rec.ExecStart, rec.TransferEnd-rec.TransferStart)
	if !p.dead[rec.PU] {
		p.noteSample(rec.PU, float64(rec.Units)/(rec.ExecEnd-rec.TransferStart))
	}
	owner, probe := p.probeOwner[rec.Seq]
	if probe {
		delete(p.probeOwner, rec.Seq)
		p.inProbe[owner] = false
		if owner == rec.PU {
			j := p.level[owner]
			p.levelRate[j] = max(p.levelRate[j], p.rate[owner])
		}
	}
	switch {
	case p.phase == phaseModeling:
		p.modelingFinished(s, owner, probe)
	case probe:
		p.probeFinished(s, owner)
	case p.phase == phaseExecuting:
		p.executingFinished(s, &rec)
	default:
		p.drainingFinished(s, &rec)
	}
}

// --- Phase 1: performance modeling -----------------------------------------

// probe sends unit i its next probe: InitialBlockSize first (level 0),
// then after k samples a probe of level k. Its size is profile.ProbeSize's
// rule with multiplier 2^k, the unit's rate scaled against the fastest
// rate seen at the level of its latest probe or below: the rates compared
// were measured over blocks of about the same duration, as in a
// synchronized round, and a slow unit that reaches a level first is still
// compared with the fast ones. A probe never exceeds the block the unit
// would get if the remaining data were split by measured rates, so a unit
// that keeps probing while others catch up, or while it is left out of
// the distribution, samples up to the block sizes the fit will be used
// for and no further.
func (p *PLBHeC) probe(s *starpu.Session, i int) {
	size := p.initialBlock()
	if k := p.sampler.Count(i); k > 0 {
		var fastest float64
		for _, r := range p.levelRate[:p.level[i]+1] {
			fastest = max(fastest, r)
		}
		j := min(k, maxProbes-1)
		size = profile.ProbeSize(math.Ldexp(1, j), size, p.rate[i], fastest)
		if p.rateSum > 0 {
			size = min(size, p.rate[i]/p.rateSum*float64(s.Remaining())/p.steps())
		}
		p.level[i] = j
	}
	seq := s.NextSeq()
	got := s.Assign(s.PUs()[i], size)
	if got == 0 {
		return
	}
	p.probeOwner[seq] = i
	p.inProbe[i] = true
	if p.phase == phaseModeling {
		p.usedUnits += float64(got)
	}
}

// noteSample updates live unit pu's rate and the probing counters after a
// block of it finished (its sample count just grew by one).
func (p *PLBHeC) noteSample(pu int, rate float64) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		rate = 0
	}
	old := p.rate[pu]
	p.rate[pu] = rate
	p.rateSum += rate - old
	k := p.sampler.Count(pu)
	switch {
	case k > p.need:
		p.needRate += rate - old
	case k == p.need:
		p.needRate += rate
	}
	if k == 1 {
		p.unprobed--
	}
	if k == minProbes {
		p.ready++
	}
}

// modelingFinished starts the execution phase when the first solve is due
// and the fit allows it; otherwise the probe's unit gets its next probe.
func (p *PLBHeC) modelingFinished(s *starpu.Session, owner int, probe bool) {
	if s.Remaining() == 0 {
		return // the modeling phase consumed everything; run is complete
	}
	if p.solveDue(s) && p.fitFirst(s) {
		return
	}
	if probe && !p.dead[owner] {
		p.probe(s, owner)
	}
	if s.InFlight() == 0 {
		// Nothing could be sent (every unit dead); drop to execution with
		// whatever model there is.
		p.beginExecution(s)
	}
}

// solveDue reports whether the first solve should be tried: some unit
// holds minProbes samples, and either the data cap is reached or the units
// holding fewer than need samples carry at most lateShare of the estimated
// throughput. A unit past its first probe is estimated at its last
// measured rate; one still inside it at InitialBlockSize/now, the most it
// can be running at.
func (p *PLBHeC) solveDue(s *starpu.Session) bool {
	if p.ready == 0 {
		return false
	}
	if p.usedUnits >= modelDataCap*float64(s.TotalUnits()) {
		return true
	}
	pending := float64(p.unprobed) * p.initialBlock() / s.Now()
	return p.rateSum-p.needRate+pending <= lateShare*(p.rateSum+pending)
}

// fitFirst fits the units holding minProbes samples and starts the
// execution phase if the models are good enough, cover the block sizes
// they will be used for, or the data cap or maxProbes forces it. Otherwise
// need rises by one, so the units take one more sample each before the
// next try (Alg. 1's "generate more points").
func (p *PLBHeC) fitFirst(s *starpu.Session) bool {
	for i := range p.late {
		p.late[i] = !p.dead[i] && p.sampler.Count(i) < minProbes
		p.skip[i] = p.dead[i] || p.late[i]
	}
	ms, err := p.sampler.FitLive(float64(s.Remaining()), p.skip)
	p.stats.fits++
	s.ChargeFit()
	p.models, p.modelsOK = ms, err == nil
	if err == nil {
		emitFit(s, ms, p.skip)
	}
	capped := p.usedUnits >= modelDataCap*float64(s.TotalUnits())
	if capped || err == nil && (p.need >= maxProbes || ms.GoodEnough() && p.coverageOK(s)) {
		p.beginExecution(s)
		return true
	}
	p.need++
	p.needRate = 0
	for i, r := range p.rate {
		if !p.dead[i] && p.sampler.Count(i) >= p.need {
			p.needRate += r
		}
	}
	return false
}

// probeFinished hands unit i its next block after its probe finished
// outside the modeling phase: another probe while it is left out of the
// distribution, its execution block once it has joined.
func (p *PLBHeC) probeFinished(s *starpu.Session, i int) {
	switch {
	case p.dead[i] || s.Remaining() == 0:
	case p.late[i]:
		p.probe(s, i)
	case p.blockUnits[i] >= 0.5:
		s.Assign(s.PUs()[i], p.blockUnits[i])
	default:
		p.keepAlive(s)
	}
}

// coverageOK reports whether every unit's largest probe is within a factor
// coverageFactor of the block size it is likely to receive in the execution
// phase (estimated from measured throughputs, no solver needed). R² only
// measures interpolation quality; this guards the *extrapolation* the
// block-size selection will perform — an implementation refinement of
// Algorithm 1's "generate more points" loop. Units left out of the fit are
// left out here too.
func (p *PLBHeC) coverageOK(s *starpu.Session) bool {
	n := p.sampler.NumPU()
	rates := make([]float64, n)
	maxProbe := make([]float64, n)
	var sum float64
	for pu := 0; pu < n; pu++ {
		if p.skip[pu] {
			continue
		}
		for _, sm := range p.sampler.Exec[pu] {
			if sm.Units > maxProbe[pu] && sm.Seconds > 0 {
				maxProbe[pu] = sm.Units
				rates[pu] = sm.Units / sm.Seconds
			}
		}
		sum += rates[pu]
	}
	if sum <= 0 {
		return true
	}
	for pu := 0; pu < n; pu++ {
		anticipated := rates[pu] / sum * float64(s.Remaining()) / p.steps()
		if anticipated >= 1 && anticipated > coverageFactor*maxProbe[pu] {
			return false
		}
	}
	return true
}

// --- Phase 2: block-size selection ------------------------------------------

// beginExecution solves the fitted equation system for the remaining data
// and submits the first execution-phase blocks.
func (p *PLBHeC) beginExecution(s *starpu.Session) {
	p.phase = phaseExecuting
	if total := float64(s.TotalUnits()); total > 0 {
		s.Telemetry().Emit(telemetry.Event{
			Kind: telemetry.EvCoverage, Time: s.Now(), PU: -1,
			Value: p.usedUnits / total,
		})
	}
	emitPhase(s, "executing")
	if s.Remaining() == 0 {
		return
	}
	if !p.modelsOK {
		// No usable model (e.g. tiny inputs): degrade to even split over
		// every live unit.
		for i := range p.late {
			p.late[i], p.skip[i] = false, p.dead[i]
		}
		p.evenShareAlive()
	} else {
		p.firstModels = p.models
		// Let the runtime's watchdogs (when a SpeculationPolicy is attached)
		// derive block deadlines from the fitted model; the closure tracks
		// p.models, so refits sharpen the deadlines automatically.
		s.SetPredictor(func(pu int, units float64) float64 {
			if !p.modelsOK || pu >= len(p.models.PU) || p.skip[pu] {
				return 0
			}
			return p.models.PU[pu].Eval(units)
		})
		p.solveDistribution(s)
	}
	fewest := math.Inf(1)
	for i, skip := range p.skip {
		if !skip {
			fewest = min(fewest, float64(p.sampler.Count(i)))
		}
	}
	if !math.IsInf(fewest, 1) {
		p.stats.modelRounds = fewest
	}
	s.RecordDistribution("modeling-phase", p.share)
	p.submitBlocks(s)
}

// solveDistribution solves the equal-finish-time system of Eq. 5 over the
// remaining units and derives per-unit block sizes.
func (p *PLBHeC) solveDistribution(s *starpu.Session) {
	remaining := float64(s.Remaining())
	p.curves = p.models.Curves(p.curves[:0])
	curves := p.curves
	for i := range curves {
		if p.skip[i] {
			curves[i] = deadCurve{}
		}
	}
	// In locality mode each curve also carries the unit's expected transfer
	// cost (miss fraction × link time), so the equal-finish-time solution
	// shifts work toward units already holding the data.
	curves = localityCurves(s, curves)
	// res.X aliases solver storage until the next solve; it is copied into
	// p.share below.
	res, err := p.solver.Solve(ipm.Problem{Curves: curves, Total: remaining})
	if p.failSolves {
		err = ipm.ErrNonFinite
	}
	p.stats.solves++
	s.ChargeSolve()
	if err != nil {
		s.Telemetry().Emit(telemetry.Event{
			Kind: telemetry.EvSolve, Time: s.Now(), PU: -1, Name: "failed",
		})
		// Classified solver failure (non-finite inputs, every unit dead):
		// spread the data evenly over the surviving units, as when no model
		// fits.
		p.evenShareAlive()
		return
	}
	p.stats.solverSeconds += res.WallTime.Seconds()
	p.stats.solved++
	p.stats.steps += float64(res.Iterations)
	p.stats.evals += float64(res.Evaluations)
	// End carries the solve's host wall time (not engine time): EvSolve is
	// rendered as an instant, so the field is free for the metric.
	s.Telemetry().Emit(telemetry.Event{
		Kind: telemetry.EvSolve, Time: s.Now(), PU: -1, Name: "waterfill",
		Value: float64(res.Iterations), Aux: res.KKTResidual,
		End: res.WallTime.Seconds(),
	})
	for i, x := range res.X {
		p.share[i] = x / remaining
	}
}

// submitBlocks hands every unit not busy with a probe its first block of
// the new distribution, or its next probe while it is left out.
func (p *PLBHeC) submitBlocks(s *starpu.Session) {
	p.setBlocks(float64(s.Remaining()), p.steps())
	for i, pu := range s.PUs() {
		if s.Remaining() == 0 {
			break
		}
		switch {
		case p.dead[i] || p.inProbe[i]:
		case p.late[i]:
			p.probe(s, i)
		case p.blockUnits[i] >= 0.5:
			s.Assign(pu, p.blockUnits[i])
		}
	}
	// Guard: if every share rounded to zero, give a surviving unit the rest.
	if s.InFlight() == 0 && s.Remaining() > 0 {
		p.keepAlive(s)
	}
}

// steps is ExecutionSteps, at least 1: the number of blocks each unit's
// share is split into.
func (p *PLBHeC) steps() float64 { return float64(max(p.ExecutionSteps, 1)) }

// --- Phase 3: execution and rebalancing -------------------------------------

func (p *PLBHeC) executingFinished(s *starpu.Session, rec *starpu.TaskRecord) {
	dur := rec.ExecEnd - rec.TransferStart
	fullBlock := float64(rec.Units) >= 0.9*p.blockUnits[rec.PU]
	if p.modelsOK && rec.Units > 0 {
		if pred := p.models.PU[rec.PU].Eval(float64(rec.Units)); pred > 0 {
			ratio := dur / pred
			p.regime[rec.PU] = 0.5*p.regime[rec.PU] + 0.5*ratio
		}
	}
	if fullBlock {
		// Tail blocks clamped by the remaining data are intentionally
		// smaller; only full blocks participate in imbalance detection.
		p.lastDur[rec.PU] = dur
		p.trackDur(rec.PU)
		if p.blockTime == 0 {
			p.blockTime = dur
		} else {
			p.blockTime = 0.7*p.blockTime + 0.3*dur
		}
	}

	if s.Remaining() == 0 {
		return
	}

	// Threshold detection (maxDifference in Algorithm 2): under the
	// equal-time distribution every unit's block should take the same
	// time, so compare full-block durations across units. The paper states
	// a 10%-of-a-block-time threshold gives a good trade-off (§III.D).
	// Detection is debounced over two consecutive completions so a single
	// noisy measurement cannot force a synchronization, and suppressed in
	// the tail, where a redistribution could not be acted on anyway: with
	// less than two rounds of work left, the drain's filler blocks take up
	// to one of them and the re-solve would split almost nothing.
	// A detection starts the drain only when the rebalance pays back what
	// it is charged (see payback); otherwise the distribution stays.
	tail := float64(s.Remaining()) < 2*p.roundTotal
	var saving, cost float64
	if !p.rebalance && p.Threshold > 0 && fullBlock && !tail {
		if p.imbalanced(rec.PU, dur, p.Threshold*p.thrScale*p.blockTime) {
			p.overCount++
		} else {
			p.overCount = 0
		}
		if p.overCount >= 2 {
			p.overCount = 0
			saving, cost = p.payback(s)
			if saving > cost {
				p.rebalance = true
				p.rebalCause = "threshold"
			} else {
				p.stats.declined++
			}
		}
	}

	if p.rebalance {
		// Enter the drain: the refit must wait for every task submitted
		// before the detection, but units are kept fed with same-size
		// blocks in the meantime (Fig. 3's "receives a new task, otherwise
		// it would remain idle").
		p.phase = phaseDraining
		p.stats.rebalances++
		s.Telemetry().Emit(telemetry.Event{
			Kind: telemetry.EvRebalance, Time: s.Now(), PU: -1, Name: p.rebalCause,
			Value: saving, Aux: cost,
		})
		emitPhase(s, "draining")
		p.drainSeq = s.NextSeq()
		// Probes in flight run outside the distribution: the drain does not
		// wait for them.
		p.drainOld = s.InFlight() - len(p.probeOwner)
		p.drainingFinished(s, rec)
		return
	}

	// Steady state: re-request a block of the same selected size.
	if !p.dead[rec.PU] && p.blockUnits[rec.PU] >= 0.5 {
		s.Assign(s.PUs()[rec.PU], p.blockUnits[rec.PU])
		return
	}
	// Unit had no share (x_g = 0); it stays idle by design.
	p.keepAlive(s)
}

// drainingFinished handles completions while a rebalance waits for the
// synchronization point (all pre-detection tasks finished).
func (p *PLBHeC) drainingFinished(s *starpu.Session, rec *starpu.TaskRecord) {
	if rec.Seq < p.drainSeq {
		p.drainOld--
	}
	if p.drainOld <= 0 {
		// Synchronization reached: refit with every accumulated sample,
		// re-solve, redistribute (Algorithm 2's rebalance branch). Units
		// whose measured times drifted far from the model first have their
		// history rescaled to the new regime.
		for i := range p.regime {
			if p.dead[i] {
				continue
			}
			if p.regime[i] > 1.25 || p.regime[i] < 0.8 {
				p.sampler.ScaleTimes(i, p.regime[i])
				p.regime[i] = 1
			}
		}
		// Left-out units that now hold minProbes samples join the refit and
		// the solve; if the refit fails they stay out, so the models kept
		// cover exactly the units in the solve.
		p.joined = p.joined[:0]
		for i, late := range p.late {
			if late && p.sampler.Count(i) >= minProbes {
				p.late[i], p.skip[i] = false, false
				p.joined = append(p.joined, i)
			}
		}
		if ms, err := p.sampler.FitLive(float64(s.Remaining()), p.skip); err == nil {
			p.models, p.modelsOK = ms, true
			emitFit(s, ms, p.skip)
		} else {
			for _, i := range p.joined {
				p.late[i], p.skip[i] = true, true
			}
		}
		p.stats.fits++
		s.ChargeFit()
		p.rebalance = false
		p.rebalCause = ""
		p.blockTime = 0
		p.phase = phaseExecuting
		emitPhase(s, "executing")
		if s.Remaining() > 0 {
			p.prevShare = append(p.prevShare[:0], p.share...)
			p.solveDistribution(s)
			if l1Distance(p.share, p.prevShare) < 0.05 {
				p.thrScale *= 2
			}
			s.RecordDistribution("rebalance", p.share)
			// Units still running filler tasks adopt the new block sizes
			// as they finish; only a fully drained session needs a fresh
			// submission round.
			p.setBlocks(float64(s.Remaining()), p.steps())
			if s.InFlight() == 0 {
				p.submitBlocks(s)
			} else if p.blockUnits[rec.PU] >= 0.5 && !p.dead[rec.PU] {
				s.Assign(s.PUs()[rec.PU], p.blockUnits[rec.PU])
			}
		}
		return
	}
	// The drain continues: keep this unit fed with a same-size block so it
	// does not idle while the pre-detection tasks finish elsewhere.
	if s.Remaining() > 0 && !p.dead[rec.PU] && p.blockUnits[rec.PU] >= 0.5 {
		s.Assign(s.PUs()[rec.PU], p.blockUnits[rec.PU])
		return
	}
	p.keepAlive(s)
}

// payback returns a threshold rebalance's predicted saving and its charged
// cost, in seconds. The saving is the spread of the full-block durations
// over the units taking part in detection, which the slowest unit adds to
// every round, times the rounds of work left. The cost is one fit and one
// solve as the session charges them: zero on the live engine, where every
// detection pays back. This weighs the paper's threshold trade-off between
// imbalance and synchronization cost (§III.D) at each detection.
func (p *PLBHeC) payback(s *starpu.Session) (saving, cost float64) {
	saving = p.durs.spread() * float64(s.Remaining()) / p.roundTotal
	ov := s.Overheads()
	return saving, ov.FitSeconds + ov.SolveSeconds
}

// evenShareAlive spreads the distribution evenly over the surviving units
// the solve would have covered (none dead or left out).
func (p *PLBHeC) evenShareAlive() {
	alive := 0
	for i := range p.share {
		if !p.skip[i] {
			alive++
		}
	}
	for i := range p.share {
		if p.skip[i] || alive == 0 {
			p.share[i] = 0
		} else {
			p.share[i] = 1 / float64(alive)
		}
	}
}

// deadCurve marks a failed unit for the solver: infinite time for any
// block, so partitioning assigns it zero work.
type deadCurve struct{}

// Eval implements ipm.Curve.
func (deadCurve) Eval(x float64) float64 { return math.Inf(1) }

// scanFailures records newly failed units and reports whether any unit
// died since the last scan. It polls the devices only when
// device.FailureEpoch has moved since the previous scan, so a completion
// with no failure anywhere costs one atomic load; a failure is still
// observed at the next completion, however the device was killed. The
// session deduplicates the EvFailover emission (NoteDeviceDown), so a death
// reported first by a fault injector is not counted again here.
func (p *PLBHeC) scanFailures(s *starpu.Session) bool {
	// Read the epoch before scanning: a device that fails mid-scan moves it
	// again, and the next completion rescans.
	epoch := device.FailureEpoch()
	if epoch == p.failEpoch {
		return false
	}
	p.failEpoch = epoch
	changed := false
	for i, pu := range s.PUs() {
		if !p.dead[i] && pu.Dev.Failed() {
			p.stopProbing(i)
			p.markDead(i)
			s.NoteDeviceDown(i)
			changed = true
		}
	}
	return changed
}

// stopProbing takes failed unit i out of the probing counters and out of
// the late units: from now on it is left out as dead.
func (p *PLBHeC) stopProbing(i int) {
	k := p.sampler.Count(i)
	if k == 0 {
		p.unprobed--
	}
	if k >= minProbes {
		p.ready--
	}
	if k >= p.need {
		p.needRate -= p.rate[i]
	}
	p.rateSum -= p.rate[i]
	p.rate[i] = 0
	p.late[i], p.skip[i] = false, true
}

// l1Distance returns Σ|a_i − b_i|.
func l1Distance(a, b []float64) float64 {
	var d float64
	for i := range a {
		d += math.Abs(a[i] - b[i])
	}
	return d
}

// markDead excludes failed unit i from every later distribution and from
// imbalance detection.
func (p *PLBHeC) markDead(i int) {
	p.dead[i] = true
	p.share[i] = 0
	p.blockUnits[i] = 0
	p.trackDur(i)
	p.sumBlocks()
	p.stats.failures++
}

// setBlocks sizes every unit's execution block from the current
// distribution and forgets the measured block durations, so imbalance
// detection starts over for the new distribution.
func (p *PLBHeC) setBlocks(remaining, steps float64) {
	for i := range p.blockUnits {
		p.blockUnits[i] = p.share[i] * remaining / steps
		p.lastDur[i] = 0
	}
	p.durs.reset()
	p.sumBlocks()
}

// sumBlocks refreshes roundTotal. Every write to blockUnits is followed by
// a full re-sum in index order, so the per-completion tail check reads the
// same bits a fresh sum would; a running ± total would drift from it.
func (p *PLBHeC) sumBlocks() {
	var sum float64
	for _, b := range p.blockUnits {
		sum += b
	}
	p.roundTotal = sum
}

// trackDur refreshes unit i's entry in durs after lastDur[i] or
// blockUnits[i] changed. A unit takes part in imbalance detection once it
// has measured a full block (lastDur ≠ 0) and while it still receives
// blocks (blockUnits not below 0.5). A NaN duration is left out: it never
// compares over the threshold.
func (p *PLBHeC) trackDur(i int) {
	d := p.lastDur[i]
	p.durs.set(i, d, d != 0 && d == d && !(p.blockUnits[i] < 0.5))
}

// imbalanced is Algorithm 2's maxDifference test: whether unit pu's
// full-block duration dur differs by more than thr from that of any other
// unit taking part in detection. Rounded subtraction is monotone, so
// checking the two extremes of the others decides it exactly as comparing
// against each of them would.
func (p *PLBHeC) imbalanced(pu int, dur, thr float64) bool {
	hi, lo := p.durs.without(pu)
	return hi-dur > thr || dur-lo > thr
}

// durRange is an iterative segment tree over n per-unit values holding the
// maximum and minimum of the present ones. Node k's children are 2k and
// 2k+1, leaf i sits at n+i and node 1 is the root. Absent leaves hold
// -Inf/+Inf, so they never win a comparison. A point update and an
// all-but-one query each cost O(log n).
type durRange struct {
	hi, lo []float64 // node maxima and minima, 2n entries each (0 unused)
}

func newDurRange(n int) durRange {
	r := durRange{hi: make([]float64, 2*n), lo: make([]float64, 2*n)}
	r.reset()
	return r
}

// reset marks every leaf absent.
func (r *durRange) reset() {
	for i := range r.hi {
		r.hi[i], r.lo[i] = math.Inf(-1), math.Inf(1)
	}
}

// set stores v at leaf i when present is true, or marks leaf i absent.
func (r *durRange) set(i int, v float64, present bool) {
	k := len(r.hi)/2 + i
	if present {
		r.hi[k], r.lo[k] = v, v
	} else {
		r.hi[k], r.lo[k] = math.Inf(-1), math.Inf(1)
	}
	for k > 1 {
		k /= 2
		r.hi[k] = max(r.hi[2*k], r.hi[2*k+1])
		r.lo[k] = min(r.lo[2*k], r.lo[2*k+1])
	}
}

// without returns the maximum and minimum over every present leaf but i
// (-Inf and +Inf when there is none). The siblings met on the path from
// leaf i to the root cover exactly the other leaves.
func (r *durRange) without(i int) (hi, lo float64) {
	hi, lo = math.Inf(-1), math.Inf(1)
	for k := len(r.hi)/2 + i; k > 1; k /= 2 {
		hi = max(hi, r.hi[k^1])
		lo = min(lo, r.lo[k^1])
	}
	return hi, lo
}

// spread returns the maximum minus the minimum over every present leaf,
// read at the root.
func (r *durRange) spread() float64 { return r.hi[1] - r.lo[1] }

// keepAlive prevents a stall when work remains but every active unit went
// idle because its computed share was zero: the fastest-known unit absorbs
// the remainder.
func (p *PLBHeC) keepAlive(s *starpu.Session) {
	if s.InFlight() > 0 || s.Remaining() == 0 {
		return
	}
	best, bestShare := -1, -1.0
	for i, sh := range p.share {
		if !p.dead[i] && sh > bestShare {
			best, bestShare = i, sh
		}
	}
	if best >= 0 {
		s.Telemetry().Emit(telemetry.Event{
			Kind: telemetry.EvKeepAlive, Time: s.Now(), PU: best,
		})
		s.Assign(s.PUs()[best], float64(s.Remaining()))
	}
}
