package expt

import (
	"plbhec/internal/metrics"
	"plbhec/internal/starpu"
	"plbhec/internal/stats"
)

// Result aggregates the repetitions of one (scenario, scheduler) cell.
type Result struct {
	Scenario Scenario
	Sched    SchedName

	Makespan stats.Summary // seconds
	MeanIdle stats.Summary // fraction

	// PUNames and the per-PU aggregates below are indexed by processing
	// unit in cluster order.
	PUNames []string
	// Dist is the block-size distribution recorded at the end of the
	// modeling/adaptation phase (Fig. 6), mean and std over repetitions.
	// For Acosta the paper reports the end-of-execution distribution, so
	// the final recorded split is aggregated instead.
	DistMean, DistStd []float64
	// IdleMean and IdleStd are per-PU idleness fractions (Fig. 7).
	IdleMean, IdleStd []float64

	// SchedStats sums scheduler counters (rebalances, solver time...)
	// averaged over repetitions.
	SchedStats map[string]float64

	// Latency is the merged per-block latency sketch over every repetition
	// (fixed memory, deterministic seed-order merge: quantiles are
	// bit-identical at any -jobs parallelism). The three fields below are
	// its standard percentiles, in seconds.
	Latency     *stats.QuantileSketch
	LatencyP50  float64
	LatencyP99  float64
	LatencyP999 float64

	// LastReport is the final repetition's full report, for Gantt and
	// trace rendering.
	LastReport *starpu.Report

	// Resilience sums the runtime's per-unit fault accounting (failovers,
	// requeues, speculation, failure detection) over every unit of every
	// completed repetition, in seed order.
	Resilience starpu.PUResilience

	// TimedOut counts repetitions cancelled by the runner's cell timeout
	// (-cell-timeout). Lost counts repetitions whose fault schedule
	// exhausted every unit (only under Sim.Retry or Sim.Health). Neither
	// contributes samples to the aggregates above; a cell with no
	// completed repetition reports zero-valued summaries and a nil
	// LastReport.
	TimedOut, Lost int
}

// RunCell executes one (scenario, scheduler) cell, fanning the repetitions
// out over the runner's pool and aggregating them in seed order.
func (r *Runner) RunCell(sc Scenario, name SchedName) (*Result, error) {
	return r.runCell(Cell{Sc: sc, Name: name})
}

// runCell executes one cell. Session construction lives in Cell.Build; the
// shared fan-out engine is runReps (see source.go).
func (r *Runner) runCell(c Cell) (*Result, error) {
	if c.Sc.Seeds <= 0 {
		c.Sc.Seeds = DefaultSeeds
	}
	sc := c.Sc
	out, err := r.runReps(c, sc.Seeds, c.lossy())
	if err != nil {
		return nil, err
	}

	res := &Result{Scenario: sc, Sched: c.Name, SchedStats: map[string]float64{},
		TimedOut: out.timedOut, Lost: out.lost}
	var makespans, idles []float64
	var dists, puIdles [][]float64
	for _, rep := range out.reports {
		if rep == nil {
			continue
		}
		res.LastReport = rep
		if res.PUNames == nil {
			res.PUNames = rep.PUNames
		}
		if rep.Latency != nil {
			if res.Latency == nil {
				res.Latency = stats.NewQuantileSketch()
			}
			res.Latency.Merge(rep.Latency)
		}
		makespans = append(makespans, rep.Makespan)
		idles = append(idles, metrics.MeanIdle(rep))
		dist := metrics.ModelingDistribution(rep)
		if c.Name == Acosta {
			dist = metrics.FinalDistribution(rep)
		}
		if dist != nil {
			dists = append(dists, dist)
		}
		usage := metrics.Usage(rep)
		puIdle := make([]float64, len(usage))
		for j, u := range usage {
			puIdle[j] = u.IdleFraction
		}
		puIdles = append(puIdles, puIdle)
		for k, v := range rep.SchedulerStats {
			res.SchedStats[k] += v / float64(sc.Seeds)
		}
		for _, u := range rep.Resilience {
			addResilience(&res.Resilience, u)
		}
	}
	res.Makespan = stats.Summarize(makespans)
	res.MeanIdle = stats.Summarize(idles)
	res.DistMean, res.DistStd = columnStats(dists)
	res.IdleMean, res.IdleStd = columnStats(puIdles)
	if res.Latency != nil {
		var lat [3]float64
		res.Latency.QuantilesInto([]float64{0.5, 0.99, 0.999}, lat[:])
		res.LatencyP50, res.LatencyP99, res.LatencyP999 = lat[0], lat[1], lat[2]
	}
	return res, nil
}

// addResilience adds one unit's fault accounting into sum. The two
// end-of-run blacklist flags become "any unit ended blacklisted".
func addResilience(sum *starpu.PUResilience, u starpu.PUResilience) {
	sum.Failovers += u.Failovers
	sum.Recoveries += u.Recoveries
	sum.Requeues += u.Requeues
	sum.Failures += u.Failures
	sum.Blacklisted = sum.Blacklisted || u.Blacklisted
	sum.Speculations += u.Speculations
	sum.SpecWins += u.SpecWins
	sum.SpecWasted += u.SpecWasted
	sum.SlowBlacklisted = sum.SlowBlacklisted || u.SlowBlacklisted
	sum.Suspicions += u.Suspicions
	sum.FalseSuspects += u.FalseSuspects
	sum.Rejoins += u.Rejoins
	sum.FencedCompletions += u.FencedCompletions
	sum.BlacklistLifts += u.BlacklistLifts
	sum.DetectionSeconds += u.DetectionSeconds
}

// columnStats returns per-column mean and sample standard deviation of a
// ragged-safe row-major table (rows may differ in length; the column count
// follows the first row; nil in → nil out).
func columnStats(rows [][]float64) (mean, std []float64) {
	if len(rows) == 0 {
		return nil, nil
	}
	cols := len(rows[0])
	mean = make([]float64, cols)
	std = make([]float64, cols)
	col := make([]float64, 0, len(rows))
	for c := 0; c < cols; c++ {
		col = col[:0]
		for _, r := range rows {
			if c < len(r) {
				col = append(col, r[c])
			}
		}
		mean[c] = stats.Mean(col)
		std[c] = stats.StdDev(col)
	}
	return mean, std
}

// find returns the result of scheduler name among rs (nil when absent).
func find(rs []*Result, name SchedName) *Result {
	for _, res := range rs {
		if res.Sched == name {
			return res
		}
	}
	return nil
}

// Speedup returns a's speedup relative to base (base/a in mean makespan).
func Speedup(a, base *Result) float64 {
	if a.Makespan.Mean == 0 {
		return 0
	}
	return base.Makespan.Mean / a.Makespan.Mean
}
