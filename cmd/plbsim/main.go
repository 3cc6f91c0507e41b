// Command plbsim runs a single scheduling scenario on the simulated
// heterogeneous cluster and reports the outcome: makespan, per-unit usage,
// the computed block distribution, and optionally an ASCII Gantt chart.
//
// Usage:
//
//	plbsim -app mm -size 65536 -machines 4 -sched plb-hec
//	plbsim -app bs -size 500000 -machines 4 -sched hdss -gantt
//	plbsim -app grn -size 100000 -sched greedy -seed 3
//	plbsim -app mm -size 65536 -sched all          # compare every policy
//	plbsim -app mm -sched plb-hec -explain             # critical-path attribution
//	plbsim -app mm -sched plb-hec -perfetto out.json   # ui.perfetto.dev trace
//	plbsim -app mm -sched plb-hec -listen :9090        # live /metrics endpoint
//	plbsim -app mm -size 65536 -cpuprofile cpu.pprof   # profile the run
//	plbsim -app mm -sched plb-hec -health              # heartbeat failure detection
//	plbsim -app mm -health -detector deadline -heartbeat 0.02
//
// Open-system service mode (docs/SERVICE.md) — requests arrive on a seeded
// stream instead of a fixed input drained to a makespan:
//
//	plbsim -app bs -size 100000 -arrivals poisson -rate 50 -req-units 64 -slo 0.25
//	plbsim -app mm -size 8192 -arrivals bursty -rate 20 -horizon 30
//	plbsim -app bs -arrivals poisson -rate 500 -slo 0.25 -no-admission   # overload ablation
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"plbhec/internal/cluster"
	"plbhec/internal/expt"
	"plbhec/internal/metrics"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
	"plbhec/internal/telemetry/span"
	"plbhec/internal/workload"
)

func main() { os.Exit(run()) }

// run holds main's body so the deferred CPU-profile stop flushes before the
// process exits with a status code.
func run() int {
	var (
		app      = flag.String("app", "mm", "application: mm | grn | bs")
		size     = flag.Int64("size", 16384, "input size (matrix order, genes, options)")
		machines = flag.Int("machines", 4, "Table I machines to use (1-4)")
		schedStr = flag.String("sched", "plb-hec", "scheduler: plb-hec | hdss | acosta | greedy | oracle")
		seed     = flag.Int64("seed", 1, "simulation seed")
		block    = flag.Float64("block", 0, "initial block size (0: per-application default)")
		gantt    = flag.Bool("gantt", false, "render an ASCII Gantt chart")
		dual     = flag.Bool("dualgpu", false, "enable the second GPU on dual boards")
		traceOut = flag.String("trace", "", "write a JSONL event trace to this file")
		perfetto = flag.String("perfetto", "", "write a Perfetto/Chrome trace_event JSON trace to this file (open in ui.perfetto.dev)")
		listen   = flag.String("listen", "", "serve Prometheus /metrics, /healthz and /debug/attribution on this address (e.g. :9090); keeps serving after the run until interrupted")
		detail   = flag.Bool("breakdown", false, "print per-unit time breakdown (exec/transfer/queue/idle)")
		locality = flag.Bool("locality", false, "track per-handle data residency: transfers pay only the bytes missing from the target device (docs/LOCALITY.md)")
		passes   = flag.Int("passes", 1, "process the input this many times over (a repeated-handle workload)")
		explain  = flag.Bool("explain", false, "record causal spans and print the run's critical-path attribution (blame vector, latency percentiles, critical chains)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")

		healthOn  = flag.Bool("health", false, "enable heartbeat failure detection: workers heartbeat, a detector raises suspicions, requeued blocks are fenced against late completions (docs/FAULTS.md)")
		heartbeat = flag.Float64("heartbeat", 0, "health mode: heartbeat period in seconds (0: the 50 ms default)")
		detector  = flag.String("detector", "phi", "health mode: failure detector, phi | deadline")
		phi       = flag.Float64("phi", 0, "health mode: phi-accrual suspicion threshold (0: the default 8)")

		arrivals = flag.String("arrivals", "", "open-system service mode: arrival process poisson | bursty | diurnal (docs/SERVICE.md)")
		rate     = flag.Float64("rate", 50, "service mode: mean arrival rate, requests/s")
		reqUnits = flag.Int64("req-units", 64, "service mode: work units per request")
		slo      = flag.Float64("slo", 0, "service mode: p99 latency SLO in seconds (0: no SLO shedding)")
		horizon  = flag.Float64("horizon", 10, "service mode: arrival-stream length in seconds")
		noAdmit  = flag.Bool("no-admission", false, "service mode: disable admission control (the overload ablation)")
	)
	flag.Parse()

	kind := expt.AppKind(*app)
	if err := expt.CheckApp(kind, *size); err != nil {
		fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
		return 2
	}
	if *machines < 1 || *machines > 4 {
		fmt.Fprintf(os.Stderr, "plbsim: -machines %d: want 1 to 4 Table I machines\n", *machines)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbsim: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "plbsim: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	cfg := starpu.SimConfig{}
	cfg.Locality = *locality
	if *healthOn {
		if *detector != "phi" && *detector != "deadline" {
			fmt.Fprintf(os.Stderr, "plbsim: -detector %q: want phi or deadline\n", *detector)
			return 2
		}
		cfg.Health = &starpu.HealthPolicy{
			HeartbeatSeconds: *heartbeat,
			Detector:         *detector,
			PhiThreshold:     *phi,
		}
	}
	if *arrivals != "" {
		return runServiceMode(kind, *size, *machines, *seed, *dual,
			*arrivals, *rate, *reqUnits, *slo, *horizon, *noAdmit, *listen, cfg.Health)
	}
	if *schedStr == "all" {
		return compareAll(kind, *size, *machines, *seed, *block, *dual, *passes, cfg)
	}
	a := expt.MakeApp(kind, *size).WithPasses(*passes)
	clu := cluster.TableI(cluster.Config{
		Machines: *machines, Seed: *seed,
		NoiseSigma: cluster.DefaultNoiseSigma, DualGPU: *dual,
	})
	b := *block
	if b <= 0 {
		b = expt.InitialBlock(kind, *size, *machines)
	}
	s, err := expt.NewScheduler(expt.SchedName(*schedStr), b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
		return 2
	}
	sess := starpu.NewSimSession(clu, a, cfg)

	var (
		tel  *telemetry.Telemetry
		perf *telemetry.PerfettoSink
		rec  *span.Recorder
	)
	if *perfetto != "" || *listen != "" || *explain {
		var names []string
		for _, pu := range clu.PUs() {
			names = append(names, pu.Name())
		}
		tel = telemetry.New()
		tel.Attach(telemetry.NewRunMetrics(tel.Registry(), names))
		if *perfetto != "" {
			perf = telemetry.NewPerfettoSink(names)
			tel.Attach(perf)
		}
		if *explain {
			rec = span.NewRecorder()
			tel.Attach(rec)
		}
		sess.AttachTelemetry(tel)
	}
	var (
		srv     *http.Server
		srvAddr net.Addr
		srvErr  <-chan error
		att     *telemetry.AttributionStore
	)
	if *listen != "" {
		att = &telemetry.AttributionStore{}
		var err error
		srv, srvAddr, srvErr, err = telemetry.ListenAndServe(*listen, tel.Registry(), att)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
			return 1
		}
		fmt.Printf("serving /metrics, /healthz and /debug/attribution on http://%s\n", srvAddr)
	}

	rep, err := sess.Run(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
		return 1
	}

	fmt.Printf("app=%s scheduler=%s machines=%d seed=%d initialBlock=%.0f\n",
		a.Name(), rep.SchedulerName, *machines, *seed, b)
	fmt.Printf("makespan: %.3fs  tasks: %d  mean idleness: %.1f%%\n",
		rep.Makespan, len(rep.Records), 100*metrics.MeanIdle(rep))
	fmt.Println("\nper-unit usage:")
	for _, u := range metrics.Usage(rep) {
		fmt.Printf("  %-20s busy %8.3fs  idle %5.1f%%  tasks %4d  units %8d\n",
			u.Name, u.BusySeconds, 100*u.IdleFraction, u.Tasks, u.Units)
	}
	if d := metrics.ModelingDistribution(rep); d != nil {
		fmt.Println("\nblock-size distribution (end of modeling/adaptation phase):")
		for i, x := range d {
			fmt.Printf("  %-20s %6.2f%%\n", rep.PUNames[i], 100*x)
		}
	}
	if len(rep.SchedulerStats) > 0 {
		fmt.Printf("\nscheduler stats: %v\n", rep.SchedulerStats)
	}
	if *healthOn {
		var sus, fal, rej, fen int64
		var det float64
		for _, u := range rep.Resilience {
			sus += u.Suspicions
			fal += u.FalseSuspects
			rej += u.Rejoins
			fen += u.FencedCompletions
			det += u.DetectionSeconds
		}
		fmt.Printf("\nfailure detection (%s): suspicions %d  false %d  rejoins %d  fenced %d",
			*detector, sus, fal, rej, fen)
		if tp := sus - fal; tp > 0 {
			fmt.Printf("  mean detection %.4fs", det/float64(tp))
		}
		fmt.Println()
		for i, u := range rep.Resilience {
			if u.Suspicions+u.Rejoins+u.FencedCompletions+u.BlacklistLifts == 0 {
				continue
			}
			fmt.Printf("  %-20s suspicions %d (false %d)  rejoins %d  fenced %d  blacklist lifts %d\n",
				rep.PUNames[i], u.Suspicions, u.FalseSuspects, u.Rejoins, u.FencedCompletions, u.BlacklistLifts)
		}
	}
	if loc := rep.Locality; loc != nil {
		base := loc.BaselineBytes()
		drop := 0.0
		if base > 0 {
			drop = 100 * loc.SavedBytes / base
		}
		fmt.Printf("\ndata residency: shipped %.2f GB of %.2f GB (%.1f%% avoided), "+
			"handle hits %d / misses %d / evictions %d\n",
			loc.TransferredBytes/1e9, base/1e9, drop, loc.Hits, loc.Misses, loc.Evictions)
		for i, b := range loc.ResidentBytes {
			if b > 0 {
				fmt.Printf("  %-20s resident %8.3f GB\n", rep.PUNames[i], b/1e9)
			}
		}
	}
	if *detail {
		fmt.Printf("\nper-unit time breakdown (makespan %.3fs):\n", rep.Makespan)
		fmt.Printf("  %-20s %10s %10s %10s %10s\n", "unit", "exec s", "transfer s", "queue s", "idle s")
		for _, b := range metrics.Analyze(rep) {
			fmt.Printf("  %-20s %10.3f %10.3f %10.3f %10.3f\n",
				b.Name, b.Exec, b.Transfer, b.Queue, b.Idle)
		}
		fmt.Println("\nstraggler chain (last unit's final tasks):")
		for _, r := range metrics.CriticalTail(rep, 5) {
			fmt.Printf("  units=%6d exec=[%9.3f, %9.3f]\n", r.Units, r.ExecStart, r.ExecEnd)
		}
	}
	if rec != nil {
		an := span.Analyze(rec.Spans(), 3)
		fmt.Println("\ncritical-path attribution:")
		expt.WriteAttribution(os.Stdout, an, rep.PUNames)
		expt.WriteSolverStats(os.Stdout, rep.SolverStats)
		if att != nil {
			if err := att.Publish(an); err != nil {
				fmt.Fprintf(os.Stderr, "plbsim: attribution: %v\n", err)
				return 1
			}
		}
		if perf != nil && len(an.Chains) > 0 {
			var flow []telemetry.FlowPoint
			for _, st := range an.Chains[0].Steps {
				flow = append(flow, telemetry.FlowPoint{PU: int(st.PU), Time: st.End})
			}
			perf.SetCriticalFlow(flow)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := metrics.WriteJSONL(f, metrics.Trace(rep)); err != nil {
			fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
			return 1
		}
		fmt.Printf("\ntrace written to %s (%d records)\n", *traceOut, len(rep.Records))
	}
	if perf != nil {
		f, err := os.Create(*perfetto)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
			return 1
		}
		werr := perf.Write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "plbsim: %v\n", werr)
			return 1
		}
		fmt.Printf("\nperfetto trace written to %s (open in ui.perfetto.dev)\n", *perfetto)
	}
	if *gantt {
		fmt.Println()
		fmt.Print(metrics.RenderGantt(rep, 100))
	}
	if *listen != "" {
		fmt.Printf("\nrun finished; metrics still serving on http://%s — interrupt (ctrl-C) to exit\n", srvAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		select {
		case <-ch:
			// Graceful shutdown: finish in-flight scrapes, then exit.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "plbsim: shutdown: %v\n", err)
				return 1
			}
		case err := <-srvErr:
			// The endpoint died on its own — no longer a silent failure.
			if err != nil {
				fmt.Fprintf(os.Stderr, "plbsim: metrics server: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

// runServiceMode executes one open-system run: the app's requests arrive on
// the chosen seeded stream, admission bounds load against the SLO, and the
// printed report covers admission accounting and the latency distribution.
// A non-nil health policy (-health) adds heartbeat failure detection. It
// returns the process exit code.
func runServiceMode(kind expt.AppKind, size int64, machines int, seed int64, dual bool,
	model string, rate float64, reqUnits int64, slo, horizon float64, noAdmit bool,
	listen string, health *starpu.HealthPolicy) int {
	var wk workload.Kind
	switch model {
	case "poisson":
		wk = workload.Poisson
	case "bursty":
		wk = workload.Bursty
	case "diurnal":
		wk = workload.Diurnal
	default:
		fmt.Fprintf(os.Stderr, "plbsim: -arrivals %q: want poisson, bursty or diurnal\n", model)
		return 2
	}
	a := expt.MakeApp(kind, size)
	clu := cluster.TableI(cluster.Config{
		Machines: machines, Seed: seed,
		NoiseSigma: cluster.DefaultNoiseSigma, DualGPU: dual,
	})
	pol := starpu.ServicePolicy{
		Apps: []starpu.ServiceApp{{
			Name: a.Name(), Profile: a.Profile(), SLOSeconds: slo,
			Arrivals: workload.Spec{Kind: wk, Rate: rate, Units: reqUnits, Seed: seed},
		}},
		Horizon: horizon,
		Seed:    seed,
	}
	pol.Admission.Disabled = noAdmit
	sess, err := starpu.NewServiceSimSession(clu, pol, starpu.SimConfig{Health: health})
	if err != nil {
		fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
		return 1
	}
	var (
		srv     *http.Server
		srvAddr net.Addr
		srvErr  <-chan error
	)
	if listen != "" {
		var names []string
		for _, pu := range clu.PUs() {
			names = append(names, pu.Name())
		}
		tel := telemetry.New()
		tel.Attach(telemetry.NewRunMetrics(tel.Registry(), names))
		sess.AttachTelemetry(tel)
		srv, srvAddr, srvErr, err = telemetry.ListenAndServe(listen, tel.Registry(), &telemetry.AttributionStore{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
			return 1
		}
		fmt.Printf("serving /metrics and /healthz on http://%s\n", srvAddr)
	}
	rep, err := sess.RunService()
	if err != nil {
		fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
		return 1
	}
	sv := rep.Service
	fmt.Printf("service mode: app=%s arrivals=%s rate=%.1f/s req=%d units slo=%.3fs horizon=%.1fs machines=%d seed=%d\n",
		a.Name(), model, rate, reqUnits, slo, horizon, machines, seed)
	if noAdmit {
		fmt.Println("admission control: DISABLED (overload ablation)")
	}
	fmt.Printf("makespan: %.3fs  blocks: %d\n\n", rep.Makespan, len(rep.Records))
	for _, ap := range sv.Apps {
		fmt.Printf("app %-12s offered %6d  admitted %6d  shed %6d  deferred-ever %5d  queued-at-end %d\n",
			ap.Name, ap.Offered, ap.Admitted, ap.Shed, ap.DeferredTotal, ap.QueuedAtEnd)
		fmt.Printf("  latency p50 %.4fs  p99 %.4fs  p99.9 %.4fs\n", ap.LatencyP50, ap.LatencyP99, ap.LatencyP999)
		fmt.Printf("  done %d  within-SLO %d  goodput %.1f req/s  shed rate %.3f\n",
			ap.RequestsDone, ap.WithinSLO, ap.GoodputRPS, ap.ShedRate)
		if ap.SLOViolationAt >= 0 {
			fmt.Printf("  live p99 first exceeded the SLO at t=%.3fs\n", ap.SLOViolationAt)
		} else if ap.SLOSeconds > 0 {
			fmt.Println("  live p99 never exceeded the SLO")
		}
	}
	fmt.Println("\nper-unit usage:")
	for _, u := range metrics.Usage(rep) {
		fmt.Printf("  %-20s busy %8.3fs  idle %5.1f%%  tasks %4d  units %8d\n",
			u.Name, u.BusySeconds, 100*u.IdleFraction, u.Tasks, u.Units)
	}
	if listen != "" {
		fmt.Printf("\nrun finished; metrics still serving on http://%s — interrupt (ctrl-C) to exit\n", srvAddr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		select {
		case <-ch:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "plbsim: shutdown: %v\n", err)
				return 1
			}
		case err := <-srvErr:
			if err != nil {
				fmt.Fprintf(os.Stderr, "plbsim: metrics server: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

// compareAll runs every policy on the same scenario and prints a ranking.
// It returns the process exit code.
func compareAll(kind expt.AppKind, size int64, machines int, seed int64, block float64, dual bool, passes int, cfg starpu.SimConfig) int {
	b := block
	if b <= 0 {
		b = expt.InitialBlock(kind, size, machines)
	}
	names := []expt.SchedName{expt.PLBHeC, expt.HDSS, expt.Acosta, expt.Greedy, expt.Factoring, expt.Oracle}
	fmt.Printf("comparing %d schedulers on %s-%d, %d machines (seed %d, block %.0f)\n\n",
		len(names), kind, size, machines, seed, b)
	fmt.Printf("%-20s %12s %12s %8s\n", "scheduler", "makespan s", "mean idle %", "tasks")
	for _, name := range names {
		a := expt.MakeApp(kind, size).WithPasses(passes)
		clu := cluster.TableI(cluster.Config{
			Machines: machines, Seed: seed,
			NoiseSigma: cluster.DefaultNoiseSigma, DualGPU: dual,
		})
		s, err := expt.NewScheduler(name, b)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbsim: %v\n", err)
			return 1
		}
		rep, err := starpu.NewSimSession(clu, a, cfg).Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbsim: %s: %v\n", name, err)
			return 1
		}
		fmt.Printf("%-20s %12.3f %12.1f %8d\n",
			name, rep.Makespan, 100*metrics.MeanIdle(rep), len(rep.Records))
	}
	return 0
}
