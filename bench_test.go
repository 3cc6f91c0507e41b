// Package plbhec_bench benchmarks every table and figure of the paper's
// evaluation (§V): each Benchmark regenerates one artifact's data on the
// simulated Table I cluster. Run them all with
//
//	go test -bench=. -benchmem
//
// Per-iteration metrics are reported with b.ReportMetric: simulated
// makespans in sim-s (virtual seconds), speedups as ratios. For the full
// multi-seed sweeps with tables and CSVs, use cmd/plbbench instead.
package plbhec_test

import (
	"flag"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/expt"
	"plbhec/internal/ipm"
	"plbhec/internal/metrics"
	"plbhec/internal/profile"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
	"plbhec/internal/workload"
)

// simulate runs one scenario once and returns the report.
func simulate(b *testing.B, kind expt.AppKind, size int64, machines int, name expt.SchedName, seed int64) *starpu.Report {
	b.Helper()
	app := expt.MakeApp(kind, size)
	clu := cluster.TableI(cluster.Config{
		Machines: machines, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma,
	})
	s, err := expt.NewScheduler(name, expt.InitialBlock(kind, size, machines))
	if err != nil {
		b.Fatal(err)
	}
	rep, err := starpu.NewSimSession(clu, app, starpu.SimConfig{}).Run(s)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkTable1Catalog measures cluster construction from the Table I
// machine catalog (E1).
func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clu := cluster.TableI(cluster.Config{Machines: 4, Seed: int64(i)})
		if len(clu.PUs()) != 8 {
			b.Fatal("bad cluster")
		}
	}
}

// BenchmarkFig1ModelFit measures the Fig. 1 pipeline: sampling a device's
// time curve and fitting the paper's F_p model (E2).
func BenchmarkFig1ModelFit(b *testing.B) {
	app := apps.NewMatMul(apps.MatMulConfig{N: 32768})
	prof := app.Profile()
	dev := device.New(device.TeslaK20c(), 1, 0.015)
	for i := 0; i < b.N; i++ {
		s := profile.NewSampler(1)
		for x := 8.0; x <= 8192; x *= 2 {
			s.Add(0, x, dev.ExecSeconds(prof, x), 0)
		}
		ms, err := s.FitAll(65536)
		if err != nil {
			b.Fatal(err)
		}
		if ms.MinR2 < profile.GoodFitR2 {
			b.Fatalf("fit below the paper's bar: %g", ms.MinR2)
		}
	}
}

// BenchmarkFig2PhaseTrace runs the phase-annotated PLB-HeC execution that
// reproduces the structure of Fig. 2 (E3).
func BenchmarkFig2PhaseTrace(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rep := simulate(b, expt.MM, 16384, 4, expt.PLBHeC, int64(i))
		last = rep.Makespan
	}
	b.ReportMetric(last, "sim-s/op")
}

// BenchmarkFig3Rebalance runs the mid-run-slowdown scenario behind Fig. 3:
// a device degrades and the threshold-triggered rebalance must fire (E4).
func BenchmarkFig3Rebalance(b *testing.B) {
	var rebalances float64
	for i := 0; i < b.N; i++ {
		app := expt.MakeApp(expt.MM, 32768)
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: int64(i), NoiseSigma: cluster.DefaultNoiseSigma})
		sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
		gpu := clu.Machines[0].GPUs[0]
		if err := sess.ScheduleAt(8, func() { gpu.SetSpeedFactor(0.35) }); err != nil {
			b.Fatal(err)
		}
		s, err := expt.NewScheduler(expt.PLBHeC, expt.InitialBlock(expt.MM, 32768, 2))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sess.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		rebalances = rep.SchedulerStats["rebalances"]
	}
	b.ReportMetric(rebalances, "rebalances/op")
}

// fig45 benchmarks one scheduler on one (app, size) cell of Figs. 4–5 with
// the full 4-machine cluster, reporting the simulated makespan.
func fig45(b *testing.B, kind expt.AppKind, size int64, name expt.SchedName) {
	var last float64
	for i := 0; i < b.N; i++ {
		rep := simulate(b, kind, size, 4, name, int64(i))
		last = rep.Makespan
	}
	b.ReportMetric(last, "sim-s/op")
}

// BenchmarkFig4MM covers the matrix-multiplication panel of Fig. 4 (E5).
func BenchmarkFig4MM(b *testing.B) {
	for _, size := range []int64{4096, 16384, 65536} {
		for _, name := range expt.PaperSchedulers() {
			b.Run(benchName(size, name), func(b *testing.B) { fig45(b, expt.MM, size, name) })
		}
	}
}

// BenchmarkFig4GRN covers the GRN panel of Fig. 4 (E5).
func BenchmarkFig4GRN(b *testing.B) {
	for _, size := range []int64{60000, 140000} {
		for _, name := range expt.PaperSchedulers() {
			b.Run(benchName(size, name), func(b *testing.B) { fig45(b, expt.GRN, size, name) })
		}
	}
}

// BenchmarkFig5BlackScholes covers Fig. 5 (E6).
func BenchmarkFig5BlackScholes(b *testing.B) {
	for _, size := range []int64{10000, 500000} {
		for _, name := range expt.PaperSchedulers() {
			b.Run(benchName(size, name), func(b *testing.B) { fig45(b, expt.BS, size, name) })
		}
	}
}

// BenchmarkFig6Distribution regenerates the block-size distribution data of
// Fig. 6 and reports the big-GPU share PLB-HeC computes (E7).
func BenchmarkFig6Distribution(b *testing.B) {
	var gpuShare float64
	for i := 0; i < b.N; i++ {
		rep := simulate(b, expt.MM, 65536, 4, expt.PLBHeC, int64(i))
		d := metrics.ModelingDistribution(rep)
		gpuShare = d[1] + d[3] + d[5] + d[7]
	}
	b.ReportMetric(gpuShare, "gpu-share")
}

// BenchmarkFig7Idleness regenerates the idleness comparison of Fig. 7 and
// reports PLB-HeC's mean idle fraction (E8).
func BenchmarkFig7Idleness(b *testing.B) {
	var idle float64
	for i := 0; i < b.N; i++ {
		rep := simulate(b, expt.MM, 65536, 4, expt.PLBHeC, int64(i))
		idle = metrics.MeanIdle(rep)
	}
	b.ReportMetric(idle, "idle-frac")
}

// BenchmarkIPMSolve measures the block-size solver on an 8-unit fitted
// system — the paper's reported scheduler overhead (E9: 170 ms ± 32 ms with
// IPOPT on their master node).
func BenchmarkIPMSolve(b *testing.B) {
	// A realistic system: curves from an actual PLB-HeC modeling phase.
	app := expt.MakeApp(expt.MM, 65536)
	clu := cluster.TableI(cluster.Config{Machines: 4, Seed: 1, NoiseSigma: 0.015})
	sampler := profile.NewSampler(len(clu.PUs()))
	for puIdx, pu := range clu.PUs() {
		for x := 16.0; x <= 2048; x *= 2 {
			sampler.Add(puIdx, x, pu.Dev.ExecSeconds(app.Profile(), x),
				pu.NominalTransferSeconds(x*app.Profile().TransferBytesPerUnit))
		}
	}
	ms, err := sampler.FitAll(65536)
	if err != nil {
		b.Fatal(err)
	}
	prob := ipm.Problem{Curves: ms.Curves(nil), Total: 65536}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ipm.Solve(prob, ipm.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCurve is a synthetic fitted time curve with the model's shape
// (affine plus logarithmic, strictly increasing).
type benchCurve struct{ a, b, c float64 }

func (c benchCurve) Eval(x float64) float64 { return c.a + c.b*x + c.c*math.Log(x+1) }

// solveNProblem builds an n-unit block-size problem with per-unit speeds
// spanning ~3 orders of magnitude, like a maximally heterogeneous cluster.
func solveNProblem(n int) ipm.Problem {
	rng := rand.New(rand.NewSource(42 + int64(n)))
	curves := make([]ipm.Curve, n)
	for g := range curves {
		curves[g] = benchCurve{
			a: rng.Float64() * 1e-3,
			b: math.Exp(rng.Float64()*5.7) * 1e-4,
			c: rng.Float64() * 1e-2,
		}
	}
	return ipm.Problem{Curves: curves, Total: 65536}
}

// BenchmarkSolveN measures one block-size solve as the unit count grows
// across the thousand-PU range, on a Solver whose workspaces persist. It
// fails on a solver error or a split that does not sum to the total, and
// reports the water-filling τ steps and curve evaluations per solve.
func BenchmarkSolveN(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256, 1024} {
		prob := solveNProblem(n)
		b.Run(itoa(int64(n)), func(b *testing.B) {
			sv := ipm.NewSolver(ipm.Options{})
			steps, evals := 0, 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sv.Solve(prob)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				for _, x := range res.X {
					sum += x
				}
				if math.Abs(sum-prob.Total) > 1e-6*prob.Total {
					b.Fatalf("split sums to %g, want %g", sum, prob.Total)
				}
				steps += res.Iterations
				evals += res.Evaluations
			}
			b.ReportMetric(float64(steps)/float64(b.N), "tau-steps/op")
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}

// BenchmarkSim10kPU runs the full PLB-HeC pipeline — probing, fitting,
// water-filling solves, execution — on a generated 10,000-PU cluster
// (2000 nodes × 1 CPU + 4 GPUs). Work conservation and record sanity are
// asserted every iteration. Next to the simulated makespan it reports the
// solves, the failed ones (each falls back to an even split), and the τ
// steps and curve evaluations per solve, so a time won by a degraded path
// shows.
func BenchmarkSim10kPU(b *testing.B) { simScale(b, 2000, 16<<20) }

// BenchmarkSim100kPU is Sim10kPU ten times larger: 100,000 PUs (20,000
// nodes) and 160M work units. One iteration takes seconds and several
// hundred MB, so `-bench .` skips it; it runs only when the -bench pattern
// names it:
//
//	go test -run xxx -bench Sim100kPU -benchmem -benchtime 1x .
func BenchmarkSim100kPU(b *testing.B) {
	if !strings.Contains(flag.Lookup("test.bench").Value.String(), "Sim100kPU") {
		b.Skip("runs only when the -bench pattern names Sim100kPU")
	}
	simScale(b, 20000, 160<<20)
}

// simScale runs PLB-HeC with InitialBlockSize 16 on cluster.Synthetic(nodes,
// 4) at cluster seed i for iteration i, over MatMul with totalUnits units.
func simScale(b *testing.B, nodes int, totalUnits int64) {
	var makespan float64
	var solver starpu.SolverStats
	for i := 0; i < b.N; i++ {
		clu := cluster.Synthetic(nodes, 4, cluster.Config{
			Seed: int64(i), NoiseSigma: cluster.DefaultNoiseSigma,
		})
		app := apps.NewMatMul(apps.MatMulConfig{N: totalUnits})
		s := sched.NewPLBHeC(sched.Config{InitialBlockSize: 16})
		rep, err := starpu.NewSimSession(clu, app, starpu.SimConfig{}).Run(s)
		if err != nil {
			b.Fatal(err)
		}
		var units int64
		for _, r := range rep.Records {
			units += r.Hi - r.Lo
			if r.ExecEnd > rep.Makespan+1e-9 {
				b.Fatalf("record ends at %g beyond makespan %g", r.ExecEnd, rep.Makespan)
			}
		}
		if units != totalUnits {
			b.Fatalf("processed %d units, want %d", units, totalUnits)
		}
		if rep.SolverStats == nil {
			b.Fatal("no solver stats")
		}
		makespan = rep.Makespan
		solver = *rep.SolverStats
	}
	b.ReportMetric(makespan, "sim-s/op")
	b.ReportMetric(solver.Solves, "solves/op")
	b.ReportMetric(solver.Solves-solver.ColdStarts, "failed-solves/op")
	b.ReportMetric(solver.MeanIterations(), "tau-steps/solve")
	b.ReportMetric(solver.MeanEvaluations(), "evals/solve")
}

// BenchmarkWarmRebalance runs the Fig. 3 slowdown scenario, whose
// rebalances re-solve the block sizes, and reports the solves and the τ
// steps per solve.
func BenchmarkWarmRebalance(b *testing.B) {
	var steps, solves float64
	for i := 0; i < b.N; i++ {
		app := expt.MakeApp(expt.MM, 32768)
		clu := cluster.TableI(cluster.Config{
			Machines: 2, Seed: int64(i), NoiseSigma: cluster.DefaultNoiseSigma,
		})
		sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
		gpu := clu.Machines[0].GPUs[0]
		if err := sess.ScheduleAt(8, func() { gpu.SetSpeedFactor(0.35) }); err != nil {
			b.Fatal(err)
		}
		s := sched.NewPLBHeC(sched.Config{InitialBlockSize: expt.InitialBlock(expt.MM, 32768, 2)})
		rep, err := sess.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		solves = rep.SolverStats.Solves
		steps = rep.SolverStats.MeanIterations()
	}
	b.ReportMetric(solves, "solves/op")
	b.ReportMetric(steps, "tau-steps/solve")
}

// BenchmarkHeadlineSpeedup reproduces the §V.a headline cell (E10) and
// reports PLB-HeC's speedup over greedy.
func BenchmarkHeadlineSpeedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		plb := simulate(b, expt.MM, 65536, 4, expt.PLBHeC, int64(i))
		greedy := simulate(b, expt.MM, 65536, 4, expt.Greedy, int64(i))
		speedup = greedy.Makespan / plb.Makespan
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkFullEvaluation runs the complete quick-mode experiment suite —
// everything cmd/plbbench regenerates — as one benchmark op.
func BenchmarkFullEvaluation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := expt.Options{Out: io.Discard, Quick: true, Seeds: 2}
		if err := expt.RunAll(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceThroughput measures the open-system service mode end to
// end: a two-app, ten-simulated-second Poisson stream with bounded
// admission, rebuilt and drained each op. It reports the offered request
// count processed per wall second (req/s) and the simulated horizon covered
// per wall second (sim-s), the service-mode analogue of Sim10kPU's
// event-throughput figure.
func BenchmarkServiceThroughput(b *testing.B) {
	var offered int64
	var makespan float64
	for i := 0; i < b.N; i++ {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: int64(i)})
		pol := starpu.ServicePolicy{
			Apps: []starpu.ServiceApp{
				{Name: "bs", Profile: expt.MakeApp(expt.BS, 100000).Profile(), SLOSeconds: 0.25,
					Arrivals: workload.Spec{Kind: workload.Poisson, Rate: 200, Units: 64, Seed: 11}},
				{Name: "mm", Profile: expt.MakeApp(expt.MM, 2048).Profile(), SLOSeconds: 1.0,
					Arrivals: workload.Spec{Kind: workload.Poisson, Rate: 100, Units: 64, Seed: 23}},
			},
			Admission: workload.AdmissionPolicy{MaxInFlight: 32, MaxQueue: 16},
			Horizon:   10,
			Seed:      int64(i),
		}
		s, err := starpu.NewServiceSimSession(clu, pol, starpu.SimConfig{})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.RunService()
		if err != nil {
			b.Fatal(err)
		}
		offered += rep.Service.Offered
		makespan += rep.Makespan
	}
	wall := b.Elapsed().Seconds()
	if wall > 0 {
		b.ReportMetric(float64(offered)/wall, "req/s")
		b.ReportMetric(makespan/wall, "sim-s")
	}
}

func benchName(size int64, name expt.SchedName) string {
	return string(name) + "-" + itoa(size)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
