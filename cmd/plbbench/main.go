// Command plbbench regenerates the paper's evaluation artifacts — every
// table and figure of §V — on the simulated Table I cluster. Results print
// as aligned text tables and, with -csv, are also written as CSV series.
//
// Usage:
//
//	plbbench                  # run every experiment at paper scale
//	plbbench -exp fig4        # one experiment
//	plbbench -quick           # reduced sizes and repetitions
//	plbbench -csv results     # also emit CSV files under results/
//	plbbench -jobs 4          # fan cells and repetitions over 4 workers
//	plbbench -cell-timeout 1m # bound each repetition's wall time
//	plbbench -list            # list experiments
//	plbbench -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Cells and repetitions fan out over -jobs workers (default: all CPUs);
// results are identical to a sequential run at any -jobs value. ^C cancels
// in-flight simulations and exits with the cancellation error.
//
// -cell-timeout bounds every repetition of every experiment. A repetition
// that exceeds it is cancelled and left out of its cell's aggregates; an
// experiment whose calibration pilot timed out prints one line and is
// skipped. The number of timed-out repetitions goes to stderr when nonzero.
//
// The profiling flags (-cpuprofile, -memprofile, -trace) write standard
// pprof / runtime-trace files covering the whole run; see docs/PERFORMANCE.md
// for reading them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"syscall"

	"plbhec/internal/expt"
	"plbhec/internal/telemetry"
)

func main() { os.Exit(run()) }

// run holds main's body so deferred profile/trace writers flush before the
// process exits with a status code.
func run() int {
	var (
		exp     = flag.String("exp", "", "experiment ID to run (default: all); see -list")
		csvDir  = flag.String("csv", "", "directory for CSV output (empty: none)")
		seeds   = flag.Int("seeds", 0, "repetitions per cell (0: the paper's 10)")
		quick   = flag.Bool("quick", false, "reduced input sizes and repetitions")
		jobs    = flag.Int("jobs", runtime.NumCPU(), "worker-pool size for cells and repetitions (1: sequential)")
		cellTO  = flag.Duration("cell-timeout", 0, "per-repetition wall-time bound; expired repetitions are recorded as timed-out (0: unbounded)")
		listen  = flag.String("listen", "", "serve live progress gauges on this address (e.g. :9090/metrics)")
		explain = flag.Bool("explain", false, "run the critical-path attribution explainer instead of the experiment suite (blame vectors, latency percentiles, critical chains per scheduler)")
		list    = flag.Bool("list", false, "list available experiments and exit")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceF  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range expt.All() {
			fmt.Printf("%-10s %-24s %s\n", e.ID, e.Paper, e.Desc)
		}
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "plbbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *traceF != "" {
		f, err := os.Create(*traceF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbbench: -trace: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "plbbench: -trace: %v\n", err)
			return 1
		}
		defer trace.Stop()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "plbbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "plbbench: -memprofile: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := telemetry.NewRegistry()
	opts := expt.Options{
		Out: os.Stdout, CSVDir: *csvDir, Seeds: *seeds, Quick: *quick,
		Jobs: *jobs, Ctx: ctx, CellTimeout: *cellTO, Metrics: reg,
	}
	if *listen != "" {
		srv, addr, _, err := telemetry.ListenAndServe(*listen, reg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plbbench: -listen: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "plbbench: serving progress metrics on http://%s/metrics\n", addr)
	}

	var err error
	if *explain {
		err = expt.RunExplain(opts)
	} else if *exp == "" {
		err = expt.RunAll(opts)
	} else if e, ok := expt.Get(*exp); ok {
		err = e.Run(opts)
	} else {
		fmt.Fprintf(os.Stderr, "plbbench: unknown experiment %q (try -list)\n", *exp)
		return 2
	}
	if n := reg.Gauge("expt_reps_timed_out").Value(); n > 0 {
		fmt.Fprintf(os.Stderr, "plbbench: %.0f repetitions timed out (-cell-timeout %v)\n", n, *cellTO)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "plbbench: %v\n", err)
		return 1
	}
	return 0
}
