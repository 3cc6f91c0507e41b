// Command bench is the repository's benchmark. It runs one named workload
// for a fixed wall-clock budget, checks every output, and prints each
// metric by name with its unit; the last line of standard output is one
// JSON object with the end-to-end metrics, or, with -trace 1, the
// per-layer metrics of a traced run:
//
//	bash bench/run.sh -workload paper -seed 1 -seconds 25 -trace 0
//	bash bench/run.sh -workload scale10k -trace 1 -trace-out spans.json
//	bash bench/run.sh compare base.jsonl new.jsonl
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"plbhec/internal/stats"
)

// minSetups is how many set-up samples a run takes at least, when its
// workload can build inputs without running them.
const minSetups = 5

// iteration is one iteration's host measurements and outcome.
type iteration struct {
	traced bool
	setup  float64 // s
	wall   float64 // s, the timed region
	rt     rtSnap
	out    *outcome
}

// runResult is everything one run of the benchmark measured.
type runResult struct {
	iters  []iteration
	setups []float64 // s, from untraced iterations and set-up-only builds
	tr     *tracer
	sched  *schedLayer
}

// measure runs w's iterations until the budget is spent: it stops before
// an iteration that would overrun the budget, judged by the one before.
// An untraced run times every iteration; a traced run alternates untraced
// and traced iterations, so the two can be compared for the tracing
// overhead.
func measure(w workloadSpec, cfg config, seed int64, budget time.Duration, traced bool) *runResult {
	r := &runResult{}
	need := 1
	if traced {
		r.tr, r.sched = newTracer(), newSchedLayer()
		need = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		trace := traced && i%2 == 1
		m := newMeter(nil, nil)
		if trace {
			m = newMeter(r.tr, r.sched)
		}
		runtime.GC()
		t := time.Now()
		if trace {
			r.tr.begin(kindWorkload, w.name)
		}
		out := w.iterate(m, cfg, seed)
		if trace {
			r.tr.end()
		}
		took := time.Since(t)
		r.iters = append(r.iters, iteration{
			traced: trace, setup: m.setup.Seconds(), wall: m.wall.Seconds(), rt: m.rt, out: out,
		})
		if !trace {
			r.setups = append(r.setups, m.setup.Seconds())
		}
		if i+1 >= need && time.Since(start)+took > budget {
			break
		}
	}
	for w.setupOnly != nil && len(r.setups) < minSetups {
		t := time.Now()
		w.setupOnly(cfg, seed)
		r.setups = append(r.setups, time.Since(t).Seconds())
	}
	return r
}

// median is the middle value of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects metrics in print order.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func (s *metricSet) add(name, unit string, v float64) {
	if s.vals == nil {
		s.vals = map[string]metric{}
	}
	s.names = append(s.names, name)
	s.vals[name] = metric{Value: v, Unit: unit}
}

// split returns the untraced and the traced iterations.
func (r *runResult) split() (plain, traced []iteration) {
	for _, it := range r.iters {
		if it.traced {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
	}
	return plain, traced
}

// medianOf is the median over its of f.
func medianOf(its []iteration, f func(iteration) float64) float64 {
	v := make([]float64, len(its))
	for i, it := range its {
		v[i] = f(it)
	}
	return median(v)
}

// endToEnd computes the end-to-end metrics from the untraced iterations,
// each the median over them. The quality metrics of a simulated workload
// are deterministic per seed, so their median is their value.
func (r *runResult) endToEnd() *metricSet {
	its, _ := r.split()
	var s metricSet
	s.add("setup_s", "s", median(r.setups))
	s.add("wall_s", "s", medianOf(its, func(it iteration) float64 { return it.wall }))
	s.add("alloc_mb", "MB", medianOf(its, func(it iteration) float64 { return float64(it.rt.allocBytes) / 1e6 }))
	s.add("throughput", "1/s", medianOf(its, func(it iteration) float64 { return it.out.throughput }))
	s.add("success_rate", "ratio", medianOf(its, func(it iteration) float64 {
		if o := it.out; o.successRate >= 0 {
			return o.successRate
		} else if o.attempted > 0 {
			return float64(o.attempted-o.failed) / float64(o.attempted)
		}
		return 0
	}))
	s.add("utilization", "ratio", medianOf(its, func(it iteration) float64 { return it.out.utilization }))
	return &s
}

// perLayer computes the per-layer metrics from the traced iterations.
// Counts are per iteration; shares are of the program's own time in the
// traced iterations' timed regions.
func (r *runResult) perLayer() (*metricSet, error) {
	plain, traced := r.split()
	n := float64(len(traced))
	var wall float64
	var rt rtSnap
	var c layerCounts
	for _, it := range traced {
		wall += it.wall
		rt.gcCycles += it.rt.gcCycles
		rt.gcCPU += it.rt.gcCPU
		c.merge(it.out.counts)
	}
	tr := r.tr
	sec := func(k spanKind) float64 { return float64(tr.selfNS[k]) / 1e9 }
	engine := sec(kindRun)
	schedBusy := sec(kindStart) + sec(kindTaskFinished)
	telBusy := sec(kindConsume)
	benchBusy := sec(kindBench)
	// Inside the run spans the layers' self times add up to the spans by
	// construction; the check is that the run spans agree with the wall the
	// meter timed independently, which fails when a span is left open or a
	// layer call escapes its run span.
	tiled := engine + schedBusy + telBusy + benchBusy
	if math.Abs(tiled-wall) > 0.05*wall {
		return nil, fmt.Errorf("self times do not tile the traced wall: engine %.4f + sched %.4f + telemetry %.4f + bench %.4f = %.4f s, traced wall %.4f s",
			engine, schedBusy, telBusy, benchBusy, tiled, wall)
	}
	// Shares are of the program's own time: the traced wall less the
	// decorators' bookkeeping, which bench.share reports against the wall.
	share := func(x float64) float64 { return x / (wall - benchBusy) }
	perIter := func(x float64) float64 { return x / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	detail := func(k string) float64 {
		return medianOf(traced, func(it iteration) float64 { return it.out.details[k] })
	}
	sl := r.sched
	var s metricSet
	s.add("sched.calls", "count", perIter(float64(sl.calls)))
	s.add("sched.share", "ratio", share(schedBusy))
	s.add("sched.steady_share", "ratio", share(float64(sl.steadyNS)/1e9))
	s.add("sched.rebalance_calls", "count", perIter(float64(sl.rebalanceCalls)))
	s.add("sched.rebalance_share", "ratio", share(float64(sl.rebalanceNS)/1e9))
	s.add("sched.self_share", "ratio", share(schedBusy-c.solveSeconds))
	for _, p := range []string{"plb-hec", "acosta", "hdss", "greedy"} {
		s.add("sched."+p+".share", "ratio", share(float64(sl.policyNS[p])/1e9))
	}
	s.add("sched.plb_speedup", "x", detail("plb_speedup"))
	s.add("ipm.solves", "count", perIter(c.solves))
	s.add("ipm.share", "ratio", share(c.solveSeconds))
	s.add("ipm.fallbacks", "count", perIter(c.fallbacks))
	s.add("ipm.ladder_descents", "count", perIter(c.failedSolves))
	s.add("ipm.fallback_rate", "ratio", ratio(c.fallbacks+c.failedSolves, c.solves))
	s.add("ipm.warm_hit_rate", "ratio", ratio(c.warm, c.warm+c.cold))
	s.add("ipm.iters_per_solve", "count", ratio(c.iters, c.warm+c.cold))
	s.add("profile.fits", "count", perIter(c.fits))
	s.add("starpu.tasks", "count", perIter(float64(c.tasks)))
	s.add("starpu.engine_s", "s", perIter(engine))
	s.add("starpu.engine_share", "ratio", share(engine))
	s.add("starpu.ns_per_task", "ns", ratio(engine*1e9, float64(c.tasks)))
	s.add("starpu.live_efficiency", "ratio", detail("live_efficiency"))
	s.add("telemetry.events", "count", perIter(float64(tr.count[kindConsume])))
	s.add("telemetry.share", "ratio", share(telBusy))
	s.add("workload.offered", "count", perIter(float64(c.offered)))
	s.add("workload.admitted", "count", perIter(float64(c.admitted)))
	s.add("workload.shed", "count", perIter(float64(c.shed)))
	s.add("workload.deferred", "count", perIter(float64(c.deferred)))
	s.add("workload.max_load_at_slo", "x", detail("max_load_at_slo"))
	s.add("workload.p99_over_slo", "ratio", detail("p99_over_slo"))
	s.add("runtime.gc_cycles", "count", perIter(float64(rt.gcCycles)))
	s.add("runtime.gc_share", "ratio", share(rt.gcCPU))
	s.add("bench.share", "ratio", benchBusy/wall)
	s.add("bench.trace_overhead", "ratio",
		medianOf(traced, func(it iteration) float64 { return it.wall })/
			medianOf(plain, func(it iteration) float64 { return it.wall })-1)
	return &s, nil
}

// details returns the workload-specific numbers behind the metrics: the
// median over iterations of each detail an outcome recorded, and for a
// traced run the latency percentiles of steady scheduler calls and of the
// live engine's completion hand-off.
func (r *runResult) details() map[string]float64 {
	d := map[string]float64{}
	keys := map[string]bool{}
	for _, it := range r.iters {
		for k := range it.out.details {
			keys[k] = true
		}
	}
	for k := range keys {
		var v []float64
		for _, it := range r.iters {
			if x, ok := it.out.details[k]; ok {
				v = append(v, x)
			}
		}
		d[k] = median(v)
	}
	if sl := r.sched; sl != nil && sl.steady.Count() > 0 {
		d["sched.steady_p50_us"] = sl.steady.Quantile(0.5)
		d["sched.steady_p99_us"] = sl.steady.Quantile(0.99)
		d["starpu.dispatch_wait_p50_us"] = sl.dispatchWait.Quantile(0.5)
		d["starpu.dispatch_wait_p99_us"] = sl.dispatchWait.Quantile(0.99)
	}
	return d
}

// environment describes the machine and toolchain of a run.
func environment(workloadName string, seed int64, seconds, trace int) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   workloadName,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one run as -append stores it for compare.
type record struct {
	Env     map[string]any     `json:"env"`
	Result  result             `json:"result"`
	Details map[string]float64 `json:"details"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	code, err := benchMain(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// benchMain runs one workload and returns the exit code: 0 when every
// output checked correct, 1 on a violation, 2 on a usage error.
func benchMain(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper, scale10k, service or live")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 25, "wall-clock budget of the run, in seconds")
	trace := fs.Int("trace", 0, "1 runs a traced run and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	appendTo := fs.String("append", "", "append this run's environment, result and details as one JSON line to this file, for compare")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		return 2, fmt.Errorf("unknown workload %q (want paper, scale10k, service or live)", *name)
	case *trace != 0 && *trace != 1:
		return 2, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *seconds < 1:
		return 2, fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	case *traceOut != "" && *trace != 1:
		return 2, errors.New("-trace-out needs -trace 1")
	}
	procs := w.procs
	if procs == 0 {
		procs = runtime.NumCPU()
	}
	runtime.GOMAXPROCS(procs)
	env := environment(w.name, *seed, *seconds, *trace)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	r := measure(w, fullConfig(), *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	res, violations := r.report(*trace == 1)
	details := r.details()
	printReport(stdout, r, res, violations, details)
	if *traceOut != "" {
		if err := r.tr.writeChrome(*traceOut, env); err != nil {
			return 1, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace %s: %d spans kept, %d dropped\n", *traceOut, len(r.tr.spans), r.tr.dropped)
	}
	if *appendTo != "" {
		if err := appendRecord(*appendTo, record{Env: env, Result: res, Details: details}); err != nil {
			return 1, fmt.Errorf("append result: %w", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d runs failed their checks", res.Failed, res.Attempted)
	}
	return 0, nil
}

// report turns a run into its result and the list of check violations.
// Any violation, a non-finite metric included, makes the result incorrect.
func (r *runResult) report(traced bool) (result, []string) {
	res := result{Metrics: map[string]metric{}}
	var violations []string
	for _, it := range r.iters {
		res.Attempted += it.out.attempted
		res.Failed += it.out.failed
		violations = append(violations, it.out.errs...)
	}
	set := &metricSet{}
	if traced {
		var err error
		if set, err = r.perLayer(); err != nil {
			violations = append(violations, err.Error())
			set = &metricSet{}
		}
	} else {
		set = r.endToEnd()
	}
	for _, n := range set.names {
		m := set.vals[n]
		if !finite(m.Value) {
			violations = append(violations, fmt.Sprintf("metric %s is not finite: %g", n, m.Value))
		}
		res.Metrics[n] = m
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		violations = append(violations, "no run was attempted")
	}
	if len(violations) > 0 && res.Failed == 0 {
		res.Failed = 1
	}
	res.Correct = len(violations) == 0
	return res, violations
}

func printReport(w io.Writer, r *runResult, res result, violations []string, details map[string]float64) {
	fmt.Fprintf(w, "runs attempted %d, failed %d\n", res.Attempted, res.Failed)
	for i, it := range r.iters {
		fmt.Fprintf(w, "iteration %d traced=%t setup %.4fs wall %.4fs alloc %.1fMB gc %d\n",
			i, it.traced, it.setup, it.wall, float64(it.rt.allocBytes)/1e6, it.rt.gcCycles)
	}
	for _, v := range violations {
		fmt.Fprintf(w, "VIOLATION %s\n", v)
	}
	names := make([]string, 0, len(details))
	for k := range details {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(w, "detail %-30s %14.6g\n", k, details[k])
	}
	names = names[:0]
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "metric %-30s %14.6g %s\n", k, m.Value, m.Unit)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
