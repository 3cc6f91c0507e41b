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
// unit's RMSE (Value) and R² (Aux) for every unit not dead (the pass did
// not fit those), then one pass-level event (PU = -1) carrying the worst R²
// so sinks can count passes exactly once.
func emitFit(s *starpu.Session, ms profile.Models, dead []bool) {
	tel := s.Telemetry()
	if !tel.Enabled() {
		return
	}
	now := s.Now()
	for i := range ms.PU {
		if dead[i] {
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
//  1. Performance modeling (§III.B, Algorithm 1): four synchronized probing
//     rounds whose block sizes start at InitialBlockSize and grow with
//     multipliers 2, 4, 8, each unit's size scaled by t_f/t_k so rounds
//     finish together; then least-squares fits of F_p and G_p, probing
//     further (doubling the multiplier) until every fit reaches R² ≥ 0.7 or
//     20% of the data has been consumed.
//  2. Block-size selection (§III.C): the fitted equation system (Eq. 5) is
//     solved by water-filling under Σx = remaining, x ≥ 0,
//     equal-finish-time conditions; unit g receives blocks of size
//     x_g/ExecutionSteps.
//  3. Execution and rebalancing (§III.D): units re-request blocks of their
//     selected size asynchronously; if two units' task finish times drift
//     apart by more than Threshold × (typical block time), the scheduler
//     refits the curves with all accumulated samples, re-solves, and
//     redistributes after a synchronization — units that detect the
//     threshold still receive one filler task while the others drain
//     (Fig. 3).
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
	// failSolves makes every solve fail, so tests can drive the
	// degradation ladder.
	failSolves bool

	phase        int // modeling, executing, draining
	sampler      *profile.Sampler
	models       profile.Models
	modelsOK     bool
	round        int
	mult         float64
	roundTime    []float64 // per-PU duration of the current probing round's block
	roundUnits   []float64 // per-PU size of the current probing round's block
	roundPending int
	usedUnits    float64 // units consumed by the modeling phase

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

	// rung is the scheduler's current degradation-ladder position (0 =
	// normal PLB-HeC solve; see ladder.go), and lastGood the most recent
	// successfully solved distribution, the ladder's first fallback.
	rung     int
	lastGood []float64

	stats plbStats
	// firstModels snapshots the models used by the first solve (debugging
	// and the Fig. 1 reproduction inspect them).
	firstModels profile.Models
}

// FirstModels returns the models fitted at the end of the modeling phase.
func (p *PLBHeC) FirstModels() profile.Models { return p.firstModels }

type plbStats struct {
	fits, solves, rebalances float64
	solverSeconds            float64
	// solved counts successful solves and steps the water-filling τ steps
	// they took.
	solved, steps float64
	modelRounds   float64
	failures      float64
	// ladder counts failed solves handled by the degradation ladder.
	ladder float64
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
	// maxModelRounds bounds probing (safety net beyond the data cap).
	maxModelRounds = 12
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
		"fits":             p.stats.fits,
		"solves":           p.stats.solves,
		"rebalances":       p.stats.rebalances,
		"solverSeconds":    p.stats.solverSeconds,
		"solverSolved":     p.stats.solved,
		"solverIterations": p.stats.steps,
		"modelRounds":      p.stats.modelRounds,
		"modelUnits":       p.usedUnits,
		"failures":         p.stats.failures,
		"ladderFallbacks":  p.stats.ladder,
		"ladderRung":       float64(p.rung),
	}
}

// Start launches the first probing round: every unit gets a block of
// InitialBlockSize.
func (p *PLBHeC) Start(s *starpu.Session) {
	n := len(s.PUs())
	p.sampler = profile.NewSampler(n)
	p.roundTime = make([]float64, n)
	p.roundUnits = make([]float64, n)
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
	p.round = 1
	p.mult = 1
	p.thrScale = 1
	emitPhase(s, "modeling")

	for _, pu := range s.PUs() {
		if s.Remaining() == 0 {
			break
		}
		got := s.Assign(pu, p.initialBlock())
		p.usedUnits += float64(got)
		if got > 0 {
			p.roundPending++
		}
	}
}

// TaskFinished dispatches on the current phase.
func (p *PLBHeC) TaskFinished(s *starpu.Session, rec starpu.TaskRecord) {
	p.sampler.Add(rec.PU, float64(rec.Units), rec.ExecSeconds(), rec.TransferSeconds())
	if p.scanFailures(s) && p.phase == phaseExecuting && s.Remaining() > 0 {
		// A unit died: force a redistribution over the survivors.
		p.rebalance = true
		p.rebalCause = "failure"
	}
	switch p.phase {
	case phaseModeling:
		p.modelingFinished(s, rec)
	case phaseExecuting:
		p.executingFinished(s, rec)
	case phaseDraining:
		p.drainingFinished(s, rec)
	}
}

// --- Phase 1: performance modeling -----------------------------------------

func (p *PLBHeC) modelingFinished(s *starpu.Session, rec starpu.TaskRecord) {
	p.roundTime[rec.PU] = rec.ExecEnd - rec.TransferStart
	p.roundUnits[rec.PU] = float64(rec.Units)
	p.roundPending--
	if p.roundPending > 0 {
		return // the probing round is synchronized
	}
	p.stats.modelRounds++

	if s.Remaining() == 0 {
		return // the modeling phase consumed everything; run is complete
	}

	needMoreRounds := p.round < 4
	if !needMoreRounds {
		// Try to fit after the fourth round and after each extra round.
		ms, err := p.sampler.FitLive(float64(s.Remaining()), p.dead)
		p.stats.fits++
		s.ChargeFit()
		if err == nil {
			p.models, p.modelsOK = ms, true
			emitFit(s, ms, p.dead)
			capUnits := modelDataCap * float64(s.TotalUnits())
			if p.usedUnits >= capUnits || p.round >= maxModelRounds {
				p.beginExecution(s)
				return
			}
			if ms.GoodEnough() && p.coverageOK(s) {
				p.beginExecution(s)
				return
			}
		}
		// Fit failed, not good enough, or probes nowhere near the block
		// sizes the fit will be used for: generate more points (Alg. 1).
	}

	p.round++
	p.mult *= 2
	sizes := profile.NextProbeSizes(p.mult, p.initialBlock(), p.roundUnits, p.roundTime)
	// Never let one probing round exceed the remaining data.
	var want float64
	for _, sz := range sizes {
		want += sz
	}
	if rem := float64(s.Remaining()); want > rem {
		scale := rem / want
		for i := range sizes {
			sizes[i] *= scale
		}
	}
	for i, pu := range s.PUs() {
		if s.Remaining() == 0 {
			break
		}
		if p.dead[i] {
			continue
		}
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		got := s.Assign(pu, sizes[i])
		p.usedUnits += float64(got)
		if got > 0 {
			p.roundPending++
		}
	}
	if p.roundPending == 0 && s.Remaining() > 0 {
		// Could not submit anything (pathological); drop to execution with
		// whatever model we have.
		p.beginExecution(s)
	}
}

// coverageOK reports whether every unit's largest probe is within a factor
// coverageFactor of the block size it is likely to receive in the execution
// phase (estimated from measured throughputs, no solver needed). R² only
// measures interpolation quality; this guards the *extrapolation* the
// block-size selection will perform — an implementation refinement of
// Algorithm 1's "generate more points" loop.
func (p *PLBHeC) coverageOK(s *starpu.Session) bool {
	n := p.sampler.NumPU()
	rates := make([]float64, n)
	maxProbe := make([]float64, n)
	var sum float64
	for pu := 0; pu < n; pu++ {
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
	steps := float64(p.ExecutionSteps)
	if steps < 1 {
		steps = 1
	}
	for pu := 0; pu < n; pu++ {
		anticipated := rates[pu] / sum * float64(s.Remaining()) / steps
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
		// No usable model (e.g. tiny inputs): degrade to even split.
		p.evenShareAlive()
	} else {
		p.firstModels = p.models
		// Let the runtime's watchdogs (when a SpeculationPolicy is attached)
		// derive block deadlines from the fitted model; the closure tracks
		// p.models, so refits sharpen the deadlines automatically.
		s.SetPredictor(func(pu int, units float64) float64 {
			if !p.modelsOK || pu >= len(p.models.PU) {
				return 0
			}
			return p.models.PU[pu].Eval(units)
		})
		p.solveDistribution(s)
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
		if p.dead[i] {
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
		// descend the degradation ladder — last-good distribution, then
		// HDSS throughput weights, then even split.
		p.degrade(s)
		return
	}
	p.stats.solverSeconds += res.WallTime.Seconds()
	p.stats.solved++
	p.stats.steps += float64(res.Iterations)
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
	p.noteSolveOK(s)
}

// submitBlocks hands every unit its first block of the new distribution.
func (p *PLBHeC) submitBlocks(s *starpu.Session) {
	steps := p.ExecutionSteps
	if steps < 1 {
		steps = 1
	}
	p.setBlocks(float64(s.Remaining()), float64(steps))
	for i, pu := range s.PUs() {
		if s.Remaining() == 0 {
			break
		}
		if !p.dead[i] && p.blockUnits[i] >= 0.5 {
			s.Assign(pu, p.blockUnits[i])
		}
	}
	// Guard: if every share rounded to zero, give a surviving unit the rest.
	if s.InFlight() == 0 && s.Remaining() > 0 {
		p.keepAlive(s)
	}
}

// --- Phase 3: execution and rebalancing -------------------------------------

func (p *PLBHeC) executingFinished(s *starpu.Session, rec starpu.TaskRecord) {
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
	// the tail (less than one round of work left), where a redistribution
	// could not be acted on anyway.
	tail := float64(s.Remaining()) < p.roundTotal
	if !p.rebalance && p.Threshold > 0 && fullBlock && !tail {
		if p.imbalanced(rec.PU, dur, p.Threshold*p.thrScale*p.blockTime) {
			p.overCount++
		} else {
			p.overCount = 0
		}
		if p.overCount >= 2 {
			p.rebalance = true
			p.rebalCause = "threshold"
			p.overCount = 0
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
		})
		emitPhase(s, "draining")
		p.drainSeq = s.NextSeq()
		p.drainOld = s.InFlight()
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
func (p *PLBHeC) drainingFinished(s *starpu.Session, rec starpu.TaskRecord) {
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
		if ms, err := p.sampler.FitLive(float64(s.Remaining()), p.dead); err == nil {
			p.models, p.modelsOK = ms, true
			emitFit(s, ms, p.dead)
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
			steps := float64(p.ExecutionSteps)
			if steps < 1 {
				steps = 1
			}
			p.setBlocks(float64(s.Remaining()), steps)
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

// evenShareAlive spreads the distribution evenly over surviving units.
func (p *PLBHeC) evenShareAlive() {
	alive := 0
	for i := range p.share {
		if !p.dead[i] {
			alive++
		}
	}
	for i := range p.share {
		if p.dead[i] || alive == 0 {
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
			p.markDead(i)
			s.NoteDeviceDown(i)
			changed = true
		}
	}
	return changed
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
