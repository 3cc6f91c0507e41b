package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/expt"
	"plbhec/internal/ipm"
	"plbhec/internal/metrics"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
	"plbhec/internal/stats"
	"plbhec/internal/telemetry"
	"plbhec/internal/workload"
)

// config sizes the workloads. fullConfig is the benchmark; the smoke test
// runs toyConfig.
type config struct {
	paperSeeds    int   // repetitions of every grid cell
	paperMachines []int // machine counts of the grid
	scaleNodes    int   // Synthetic nodes, each 1 CPU + 4 GPUs
	scaleUnits    int64
	svcLoads      []float64 // offered load as a multiple of capacity
	svcSeeds      int
	svcHorizon    float64 // arrival-stream length, sim-s
	liveOptions   int
}

func fullConfig() config {
	loads := make([]float64, 0, 16)
	for l := 5; l <= 20; l++ {
		loads = append(loads, float64(l)/10)
	}
	return config{
		paperSeeds: 10, paperMachines: []int{1, 2, 3, 4},
		scaleNodes: 2000, scaleUnits: 16 << 20,
		svcLoads: loads, svcSeeds: 5, svcHorizon: 600,
		liveOptions: 50000,
	}
}

func toyConfig() config {
	return config{
		paperSeeds: 1, paperMachines: []int{4},
		scaleNodes: 20, scaleUnits: 1 << 16,
		svcLoads: []float64{svcLatencyLoad, svcOverload}, svcSeeds: 1, svcHorizon: 20,
		liveOptions: 2000,
	}
}

// The service load points the service metrics are read at.
const (
	svcLatencyLoad = 0.9
	svcOverload    = 2.0
)

// A workloadSpec is one fixed set of inputs; BENCHMARK.json records why
// each was chosen. iterate runs one iteration: it builds its inputs
// through m.build, runs them through m.timed, checks the outputs, and
// returns what it measured. setupOnly, when set, builds one iteration's
// inputs and drops them, so a run whose iterations are few still takes
// several set-up samples. procs is the GOMAXPROCS the workload runs
// under, 0 for the number of CPUs.
type workloadSpec struct {
	name      string
	iterate   func(m *meter, cfg config, seed int64) *outcome
	setupOnly func(cfg config, seed int64)
	procs     int
}

// The simulated workloads run on one P: they drive the session from one
// goroutine, and on a shared host a concurrent GC on a second P made their
// wall time follow the neighbours' load (run-to-run spread 13% against 4%).
var workloads = []workloadSpec{
	{name: "paper", iterate: runPaper, procs: 1},
	{name: "scale10k", iterate: runScale, setupOnly: setupScale, procs: 1},
	{name: "service", iterate: runService, procs: 1},
	{name: "live", iterate: runLive},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// outcome is what one iteration measured besides host time.
type outcome struct {
	attempted, failed int64
	errs              []string
	// throughput, successRate and utilization are the iteration's values of
	// the end-to-end metrics of the same names (see README.md for what each
	// means on each workload). successRate < 0 means the share of runs that
	// passed their checks.
	throughput, successRate, utilization float64
	// details are workload-specific numbers for the report and the
	// per-layer metrics.
	details map[string]float64
	counts  layerCounts
}

func newOutcome() *outcome { return &outcome{successRate: -1, details: map[string]float64{}} }

// fail counts a failed run and keeps its message.
func (o *outcome) fail(label string, err error) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf("%s: %v", label, err))
	}
}

// layerCounts sums the program's own counters over an iteration's reports.
type layerCounts struct {
	tasks                                 int64
	solves, fallbacks, failedSolves       float64
	warm, cold, iters, solveSeconds, fits float64
	offered, admitted, shed, deferred     int64
}

func (c *layerCounts) add(rep *starpu.Report) {
	c.tasks += int64(len(rep.Records))
	c.fits += rep.SchedulerStats["fits"]
	if st := rep.SolverStats; st != nil {
		c.solves += st.Solves
		c.fallbacks += st.Fallbacks
		c.failedSolves += st.Solves - st.WarmStarts - st.ColdStarts
		c.warm += st.WarmStarts
		c.cold += st.ColdStarts
		c.iters += st.Iterations
		c.solveSeconds += st.SolveSeconds
	}
	if sv := rep.Service; sv != nil {
		c.offered += sv.Offered
		c.admitted += sv.Admitted
		c.shed += sv.Shed
		c.deferred += sv.DeferredTotal
	}
}

func (c *layerCounts) merge(o layerCounts) {
	c.tasks += o.tasks
	c.solves += o.solves
	c.fallbacks += o.fallbacks
	c.failedSolves += o.failedSolves
	c.warm += o.warm
	c.cold += o.cold
	c.iters += o.iters
	c.solveSeconds += o.solveSeconds
	c.fits += o.fits
	c.offered += o.offered
	c.admitted += o.admitted
	c.shed += o.shed
	c.deferred += o.deferred
}

// checkRecords is the exactly-once and work-conservation gate of a
// closed-system run: the records tile [0, TotalUnits) with no gap or
// overlap, and every block ends by the makespan.
func checkRecords(rep *starpu.Report) error {
	type interval struct{ lo, hi int64 }
	ivs := make([]interval, len(rep.Records))
	for i, r := range rep.Records {
		if r.Hi <= r.Lo || r.Units != r.Hi-r.Lo {
			return fmt.Errorf("block %d has units [%d,%d) of size %d", r.Seq, r.Lo, r.Hi, r.Units)
		}
		if !finite(r.ExecEnd) || r.ExecEnd > rep.Makespan {
			return fmt.Errorf("block %d ends at %g, after the makespan %g", r.Seq, r.ExecEnd, rep.Makespan)
		}
		ivs[i] = interval{r.Lo, r.Hi}
	}
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var next int64
	for _, v := range ivs {
		if v.lo != next {
			return fmt.Errorf("units [%d,%d) are not covered exactly once", min(v.lo, next), max(v.lo, next))
		}
		next = v.hi
	}
	if next != rep.TotalUnits {
		return fmt.Errorf("records cover %d of %d units", next, rep.TotalUnits)
	}
	return nil
}

// simRun builds one closed-system session, runs it in the timed region and
// checks its records. A run that errors or fails a check is counted and
// returns nil.
func (o *outcome) simRun(m *meter, label string, build func() (*starpu.Session, starpu.Scheduler, error)) *starpu.Report {
	o.attempted++
	var sess *starpu.Session
	var s starpu.Scheduler
	err := m.build(func() (err error) {
		sess, s, err = build()
		return err
	})
	var rep *starpu.Report
	if err == nil {
		s = m.scheduler(s)
		err = m.timed(label, func() (err error) {
			rep, err = sess.Run(s)
			return err
		})
	}
	if err == nil {
		err = checkRecords(rep)
	}
	if err != nil {
		o.fail(label, err)
		return nil
	}
	o.counts.add(rep)
	return rep
}

// geomean is the geometric mean of xs (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// runPaper runs the Figs. 4/5 grid — every paper size of MM, GRN and
// Black-Scholes on 1-4 Table I machines under the four paper policies,
// paperSeeds times each — plus, per seed, the Fig. 3 cell: MM 32768 on 2
// machines with the master GPU slowed to 0.35× at t=8.
func runPaper(m *meter, cfg config, seed int64) *outcome {
	o := newOutcome()
	base := seed * int64(cfg.paperSeeds)
	scheds := expt.PaperSchedulers()
	var speedups, plbRates, plbUtil []float64
	for _, kind := range []expt.AppKind{expt.MM, expt.GRN, expt.BS} {
		for _, size := range expt.PaperSizes(kind) {
			for _, machines := range cfg.paperMachines {
				mean := make(map[expt.SchedName]float64, len(scheds))
				complete := true
				for _, name := range scheds {
					for i := 0; i < cfg.paperSeeds; i++ {
						clusterSeed := base + int64(i)
						label := fmt.Sprintf("%s-%d-m%d/%s/seed%d", kind, size, machines, name, clusterSeed)
						rep := o.simRun(m, label, func() (*starpu.Session, starpu.Scheduler, error) {
							clu := cluster.TableI(cluster.Config{
								Machines: machines, Seed: clusterSeed, NoiseSigma: cluster.DefaultNoiseSigma,
							})
							s, err := expt.NewScheduler(name, expt.InitialBlock(kind, size, machines))
							return starpu.NewSimSession(clu, expt.MakeApp(kind, size), starpu.SimConfig{}), s, err
						})
						if rep == nil {
							complete = false
							continue
						}
						mean[name] += rep.Makespan / float64(cfg.paperSeeds)
						if name == expt.PLBHeC {
							plbUtil = append(plbUtil, 1-metrics.MeanIdle(rep))
						}
					}
				}
				if complete {
					speedups = append(speedups, mean[expt.Greedy]/mean[expt.PLBHeC])
					plbRates = append(plbRates, float64(size)/mean[expt.PLBHeC])
				}
			}
		}
	}
	const fig3Size = 32768
	for i := 0; i < cfg.paperSeeds; i++ {
		clusterSeed := base + int64(i)
		o.simRun(m, fmt.Sprintf("fig3/seed%d", clusterSeed), func() (*starpu.Session, starpu.Scheduler, error) {
			clu := cluster.TableI(cluster.Config{Machines: 2, Seed: clusterSeed, NoiseSigma: cluster.DefaultNoiseSigma})
			sess := starpu.NewSimSession(clu, expt.MakeApp(expt.MM, fig3Size), starpu.SimConfig{})
			gpu := clu.Machines[0].GPUs[0]
			if err := sess.ScheduleAt(8, func() { gpu.SetSpeedFactor(0.35) }); err != nil {
				return nil, nil, err
			}
			s, err := expt.NewScheduler(expt.PLBHeC, expt.InitialBlock(expt.MM, fig3Size, 2))
			return sess, s, err
		})
	}
	o.throughput = geomean(plbRates)
	o.utilization = stats.Mean(plbUtil)
	o.details["plb_speedup"] = geomean(speedups)
	return o
}

// scaleSession builds the scale10k run: one pinned instance, whatever the
// seed. It is the first instance BenchmarkSim10kPU runs (cluster seed 0),
// on which 4 of the 7 solves fall back to bisection. The solver's path is
// chaotic in the input: other cluster seeds, or the same cluster with 0.1%
// more work, take 6 or 7 solves with 3 to 5 fallbacks, and the wall time
// follows the fallback count by up to a third.
func scaleSession(cfg config) (*starpu.Session, starpu.Scheduler, error) {
	clu := cluster.Synthetic(cfg.scaleNodes, 4, cluster.Config{Seed: 0, NoiseSigma: cluster.DefaultNoiseSigma})
	s := sched.NewPLBHeC(sched.Config{InitialBlockSize: 16})
	s.Solver = ipm.Options{Structured: true, WarmStart: true}
	return starpu.NewSimSession(clu, apps.NewMatMul(apps.MatMulConfig{N: cfg.scaleUnits}), starpu.SimConfig{}), s, nil
}

// runScale runs PLB-HeC with the structured, warm-started solver on a
// generated cluster of scaleNodes × (1 CPU + 4 GPUs), as BenchmarkSim10kPU
// does.
func runScale(m *meter, cfg config, seed int64) *outcome {
	o := newOutcome()
	rep := o.simRun(m, "scale10k", func() (*starpu.Session, starpu.Scheduler, error) {
		return scaleSession(cfg)
	})
	if rep != nil {
		o.throughput = float64(rep.TotalUnits) / rep.Makespan
		o.utilization = 1 - metrics.MeanIdle(rep)
		o.details["sim_makespan_s"] = rep.Makespan
	}
	return o
}

func setupScale(cfg config, _ int64) { scaleSession(cfg) }

// serviceApps are the two applications the service workload multiplexes, as
// expt's service sweep defines them: a latency-sensitive Black-Scholes
// pricer and a throughput-oriented MatMul.
func serviceApps() []starpu.ServiceApp {
	return []starpu.ServiceApp{
		{Name: "bs", Profile: expt.MakeApp(expt.BS, 100000).Profile(), SLOSeconds: 0.25,
			Arrivals: workload.Spec{Kind: workload.Poisson, Units: 64, Seed: 11}},
		{Name: "mm", Profile: expt.MakeApp(expt.MM, 8192).Profile(), SLOSeconds: 1.0,
			Arrivals: workload.Spec{Kind: workload.Poisson, Units: 256, Seed: 23}},
	}
}

// capacityRPS is the cluster's request service rate for one app: the sum
// over units of the reciprocal noise-free seconds per request, as expt
// computes it.
func capacityRPS(clu *cluster.Cluster, app starpu.ServiceApp) float64 {
	var rps float64
	for _, pu := range clu.PUs() {
		if t := pu.Dev.NominalExecSeconds(app.Profile, float64(app.Arrivals.Units)); t > 0 {
			rps += 1 / t
		}
	}
	return rps
}

// svcPoint aggregates one load point over its seeds, per app.
type svcPoint struct {
	load                     float64
	latency                  []*stats.QuantileSketch // merged over seeds
	offered, shed, withinSLO []int64
	makespan                 float64 // summed over seeds
}

// checkService is the admission-conservation gate of a service run.
func checkService(rep *starpu.Report) error {
	sv := rep.Service
	if sv == nil {
		return fmt.Errorf("run produced no service report")
	}
	if sv.Offered != sv.Admitted+sv.Shed+sv.QueuedAtEnd {
		return fmt.Errorf("offered %d != admitted %d + shed %d + queued %d",
			sv.Offered, sv.Admitted, sv.Shed, sv.QueuedAtEnd)
	}
	for _, a := range sv.Apps {
		if a.Offered != a.Admitted+a.Shed+a.QueuedAtEnd {
			return fmt.Errorf("app %s: offered %d != admitted %d + shed %d + queued %d",
				a.Name, a.Offered, a.Admitted, a.Shed, a.QueuedAtEnd)
		}
		if a.RequestsDone > a.Admitted {
			return fmt.Errorf("app %s: %d requests done, only %d admitted", a.Name, a.RequestsDone, a.Admitted)
		}
	}
	return nil
}

// serviceSession builds one service run: both apps offered at load × their
// capacity on 2 Table I machines, admission bounded at 32 in flight and 16
// queued, and the canonical RunMetrics sink attached. It collects the heap
// before returning, so the garbage of earlier runs and of generating the
// arrival stream is not collected, and its allocations not counted, inside
// the timed region: otherwise how many collections landed there changed
// the timed allocation by 15% on one seed.
func serviceSession(m *meter, cfg config, appsDef []starpu.ServiceApp, rates []float64, load float64, seed int64) (*starpu.Session, error) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma})
	pol := starpu.ServicePolicy{
		Apps:      slices.Clone(appsDef),
		Admission: workload.AdmissionPolicy{MaxInFlight: 32, MaxQueue: 16},
		Horizon:   cfg.svcHorizon,
		Seed:      seed,
	}
	for i := range pol.Apps {
		pol.Apps[i].Arrivals.Rate = load * rates[i]
	}
	sess, err := starpu.NewServiceSimSession(clu, pol, starpu.SimConfig{})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(clu.PUs()))
	for _, pu := range clu.PUs() {
		names = append(names, pu.Name())
	}
	tel := telemetry.New()
	tel.Attach(m.sink(telemetry.NewRunMetrics(tel.Registry(), names)))
	sess.AttachTelemetry(tel)
	runtime.GC()
	return sess, nil
}

// runService sweeps the offered load over svcLoads × capacity with
// svcSeeds Poisson streams per point.
func runService(m *meter, cfg config, seed int64) *outcome {
	o := newOutcome()
	appsDef := serviceApps()
	ref := cluster.TableI(cluster.Config{Machines: 2})
	rates := make([]float64, len(appsDef))
	for i, a := range appsDef {
		rates[i] = capacityRPS(ref, a)
	}
	base := seed * int64(cfg.svcSeeds)
	var offered, withinSLO int64
	var overloadUtil []float64
	for _, load := range cfg.svcLoads {
		n := len(appsDef)
		pt := svcPoint{load: load, latency: make([]*stats.QuantileSketch, n),
			offered: make([]int64, n), shed: make([]int64, n), withinSLO: make([]int64, n)}
		for i := range pt.latency {
			pt.latency[i] = stats.NewQuantileSketch()
		}
		for j := 0; j < cfg.svcSeeds; j++ {
			runSeed := base + int64(j)
			label := fmt.Sprintf("service-x%.1f/seed%d", load, runSeed)
			o.attempted++
			var sess *starpu.Session
			err := m.build(func() (err error) {
				sess, err = serviceSession(m, cfg, appsDef, rates, load, runSeed)
				return err
			})
			var rep *starpu.Report
			if err == nil {
				err = m.timed(label, func() (err error) {
					rep, err = sess.RunService()
					return err
				})
			}
			if err == nil {
				err = checkService(rep)
			}
			if err != nil {
				o.fail(label, err)
				continue
			}
			o.counts.add(rep)
			pt.makespan += rep.Makespan
			if load == svcOverload {
				overloadUtil = append(overloadUtil, 1-metrics.MeanIdle(rep))
			}
			for i, a := range rep.Service.Apps {
				if a.Latency != nil {
					pt.latency[i].Merge(a.Latency)
				}
				pt.offered[i] += a.Offered
				pt.shed[i] += a.Shed
				pt.withinSLO[i] += a.WithinSLO
			}
		}
		// A load point meets the SLO when every app's p99 is within its SLO
		// and at most 1% of its requests are shed.
		meets := true
		var worst float64 // the largest p99 ÷ SLO over the apps
		var ptWithin int64
		for i, a := range appsDef {
			p99 := pt.latency[i].Quantile(0.99)
			worst = max(worst, p99/a.SLOSeconds)
			meets = meets && p99 <= a.SLOSeconds && float64(pt.shed[i]) <= 0.01*float64(pt.offered[i])
			offered += pt.offered[i]
			withinSLO += pt.withinSLO[i]
			ptWithin += pt.withinSLO[i]
		}
		if meets {
			o.details["max_load_at_slo"] = max(o.details["max_load_at_slo"], load)
		}
		if load == svcLatencyLoad {
			o.details["p99_over_slo"] = worst
		}
		if load == svcOverload && pt.makespan > 0 {
			o.throughput = float64(ptWithin) / pt.makespan
		}
	}
	if offered > 0 {
		o.successRate = float64(withinSLO) / float64(offered)
	}
	o.utilization = stats.Mean(overloadUtil)
	return o
}

// liveWorkers are the two goroutine workers of the live workload: one at
// full speed, one throttled to a third of it.
var liveWorkers = []starpu.LiveWorkerSpec{{Name: "fast"}, {Name: "slow", Slowdown: 3}}

// Monte-Carlo shape of the live kernel. One step is exact, since the kernel
// steps log-price increments; 1024 paths keep the payoff mean close to
// normal, which checkPrices relies on.
const (
	livePaths = 1024
	liveSteps = 1
)

// checkPrices gates the live kernel's output against the closed form.
// LiveBlackScholes.Verify bounds each price by 6·S·σ/√paths + 0.5, which is
// about 4 standard errors for the most volatile options: at 1024 paths
// about one option in a million misses it (measured: 1 in 900,000), so a
// run of 10^5 options would fail on a tenth of its seeds. The gate applies
// twice that bound to every option, and bounds the mean signed error in
// units of it, which catches a systematic mistake no single option shows.
func checkPrices(bs *apps.LiveBlackScholes) error {
	var bias float64
	for i, opt := range bs.Options {
		tol := 6*opt.Spot*opt.Volatility/math.Sqrt(float64(bs.Paths)) + 0.5
		d := (bs.Price[i] - apps.Analytic(opt)) / tol
		if !finite(d) || math.Abs(d) > 2 {
			return fmt.Errorf("option %d priced %.4f, analytic %.4f (bound %.4f)",
				i, bs.Price[i], apps.Analytic(opt), 2*tol)
		}
		bias += d
	}
	if bias /= float64(len(bs.Options)); math.Abs(bias) > 0.05 {
		return fmt.Errorf("prices are biased: mean error %.4f of the per-option bound", bias)
	}
	return nil
}

// runLive prices liveOptions Black-Scholes options by Monte Carlo on two
// goroutine workers under greedy 4-option blocks, and checks every price
// against the closed form. A traced iteration also times the kernel
// serially on a tenth of the options, the baseline of live_efficiency.
func runLive(m *meter, cfg config, seed int64) *outcome {
	o := newOutcome()
	o.attempted++
	label := fmt.Sprintf("live/seed%d", seed)
	var bs *apps.LiveBlackScholes
	var sess *starpu.Session
	var serial float64
	m.build(func() error {
		bs = apps.NewLiveBlackScholes(cfg.liveOptions, livePaths, liveSteps, seed)
		if m.tr != nil {
			slice := int64(cfg.liveOptions / 10)
			t := time.Now()
			bs.Execute(0, slice)
			serial = time.Since(t).Seconds() * float64(cfg.liveOptions) / float64(slice)
		}
		sess = starpu.NewLiveSession(bs, starpu.LiveConfig{
			Workers: liveWorkers, TotalUnits: int64(cfg.liveOptions), AppName: "blackscholes-live",
		})
		return nil
	})
	s := m.scheduler(sched.NewGreedy(sched.Config{InitialBlockSize: 4}))
	var rep *starpu.Report
	err := m.timed(label, func() (err error) {
		rep, err = sess.Run(s)
		return err
	})
	if err == nil {
		err = checkRecords(rep)
	}
	if err == nil {
		err = checkPrices(bs)
	}
	if err != nil {
		o.fail(label, err)
		return o
	}
	o.counts.add(rep)
	gaps := dispatchGaps(rep)
	o.throughput = float64(rep.TotalUnits) / rep.Makespan
	o.utilization = 1 - metrics.MeanIdle(rep)
	o.details["dispatch_p50_us"] = stats.Quantile(gaps, 0.5)
	o.details["dispatch_p99_us"] = stats.Quantile(gaps, 0.99)
	o.details["dispatch_samples"] = float64(len(gaps))
	if serial > 0 {
		// The workers run at speeds 1 and 1/3, so a perfect split finishes
		// in 3/4 of the serial time.
		o.details["live_efficiency"] = 0.75 * serial / rep.Makespan
	}
	return o
}

// dispatchGaps returns, for every pair of consecutive blocks on one worker,
// the µs from the first block's ExecEnd to the second's SubmitTime.
func dispatchGaps(rep *starpu.Report) []float64 {
	byPU := make(map[int][]starpu.TaskRecord)
	for _, r := range rep.Records {
		byPU[r.PU] = append(byPU[r.PU], r)
	}
	var gaps []float64
	for _, recs := range byPU {
		slices.SortFunc(recs, func(a, b starpu.TaskRecord) int { return cmp.Compare(a.SubmitTime, b.SubmitTime) })
		for i := 1; i < len(recs); i++ {
			gaps = append(gaps, (recs[i].SubmitTime-recs[i-1].ExecEnd)*1e6)
		}
	}
	return gaps
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
