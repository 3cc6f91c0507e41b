// Package plbhec is the public API of the PLB-HeC reproduction: profile-
// based load balancing for heterogeneous CPU-GPU clusters (Sant'Ana,
// Cordeiro, Camargo — IEEE CLUSTER 2015).
//
// The package re-exports the library's stable surface so downstream users
// never import internal paths:
//
//	clu := plbhec.TableICluster(plbhec.ClusterConfig{Machines: 4, Seed: 1,
//	    NoiseSigma: plbhec.DefaultNoiseSigma})
//	app := plbhec.MatMul(plbhec.MatMulConfig{N: 65536})
//	rep, err := plbhec.Simulate(clu, app, plbhec.NewPLBHeC(plbhec.SchedulerConfig{
//	    InitialBlockSize: 16,
//	}))
//
// Three layers are exposed:
//
//   - workloads (MatMul, GRN, BlackScholes) and clusters (TableICluster or
//     hand-assembled Machines);
//   - schedulers: NewPLBHeC (the paper's algorithm), NewHDSS, NewAcosta,
//     NewGreedy, NewStaticOracle, or any custom Scheduler implementation;
//   - execution: Simulate for the discrete-event cluster simulation, and
//     RunLive for real goroutine workers executing real kernels.
//
// See README.md for the architecture and EXPERIMENTS.md for the
// reproduction results.
package plbhec

import (
	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/ipm"
	"plbhec/internal/metrics"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
)

// --- Clusters ----------------------------------------------------------------

// ClusterConfig configures TableICluster.
type ClusterConfig = cluster.Config

// Cluster is a set of machines with their processing units and links.
type Cluster = cluster.Cluster

// Machine is one cluster node (CPU + GPUs + NIC + PCIe).
type Machine = cluster.Machine

// ProcessingUnit is the paper's term for one CPU or GPU.
type ProcessingUnit = cluster.PU

// DeviceSpec statically describes a processor.
type DeviceSpec = device.Spec

// DefaultNoiseSigma is the measurement jitter used by the experiments.
const DefaultNoiseSigma = cluster.DefaultNoiseSigma

// TableICluster builds the paper's evaluation cluster (machines A–D of
// Table I) with 1–4 machines.
func TableICluster(cfg ClusterConfig) *Cluster { return cluster.TableI(cfg) }

// NewCluster assembles custom machines; machines[0] becomes the master.
func NewCluster(machines ...*Machine) *Cluster { return cluster.New(machines...) }

// NewDevice instantiates a device spec with a seeded noise stream.
func NewDevice(spec DeviceSpec, seed int64, noiseSigma float64) *device.Device {
	return device.New(spec, seed, noiseSigma)
}

// TableIDevices returns the eight Table I processor specs.
func TableIDevices() []DeviceSpec { return device.TableISpecs() }

// --- Workloads -----------------------------------------------------------------

// App is a data-parallel workload decomposed into work units.
type App = apps.App

// MatMulConfig, GRNConfig and BlackScholesConfig parametrize the paper's
// three applications.
type (
	MatMulConfig       = apps.MatMulConfig
	GRNConfig          = apps.GRNConfig
	BlackScholesConfig = apps.BlackScholesConfig
)

// MatMul builds the matrix-multiplication workload (one unit = one line).
func MatMul(cfg MatMulConfig) *App { return apps.NewMatMul(cfg) }

// GRN builds the gene-regulatory-network inference workload (one unit =
// one candidate gene).
func GRN(cfg GRNConfig) *App { return apps.NewGRN(cfg) }

// BlackScholes builds the Monte-Carlo option-pricing workload (one unit =
// one option).
func BlackScholes(cfg BlackScholesConfig) *App { return apps.NewBlackScholes(cfg) }

// --- Schedulers ----------------------------------------------------------------

// Scheduler is a pluggable load-balancing policy; implement it to add your
// own, or use the provided constructors.
type Scheduler = starpu.Scheduler

// SchedulerConfig carries the knobs shared by the built-in policies.
type SchedulerConfig = sched.Config

// PLBHeCScheduler exposes the paper algorithm's tunables (threshold,
// execution steps, solver options...).
type PLBHeCScheduler = sched.PLBHeC

// NewPLBHeC returns the paper's scheduler with its default parameters
// (10% threshold, 20% modeling-data cap).
func NewPLBHeC(cfg SchedulerConfig) *PLBHeCScheduler { return sched.NewPLBHeC(cfg) }

// NewHDSS returns the Heterogeneous Dynamic Self-Scheduler baseline [19].
func NewHDSS(cfg SchedulerConfig) Scheduler { return sched.NewHDSS(cfg) }

// NewAcosta returns the relative-power baseline of Acosta et al. [18].
func NewAcosta(cfg SchedulerConfig) Scheduler { return sched.NewAcosta(cfg) }

// NewGreedy returns StarPU's default fixed-block dispatcher.
func NewGreedy(cfg SchedulerConfig) Scheduler { return sched.NewGreedy(cfg) }

// NewStaticOracle returns the perfect-knowledge ablation scheduler.
func NewStaticOracle() Scheduler { return sched.NewStatic() }

// --- Execution -------------------------------------------------------------------

// Session is one execution of a workload on a cluster; schedulers receive
// it in their callbacks.
type Session = starpu.Session

// SimConfig configures a simulated session (overhead charging).
type SimConfig = starpu.SimConfig

// Report is the outcome of a run: makespan, task records, distributions.
type Report = starpu.Report

// TaskRecord is the measured history of one executed block.
type TaskRecord = starpu.TaskRecord

// Distribution is a block-size split recorded by a scheduler (Fig. 6).
type Distribution = starpu.Distribution

// NewSimSession prepares a simulated run; use it when you need to perturb
// the environment (Session.ScheduleAt, which live sessions also accept)
// before Run.
func NewSimSession(c *Cluster, app *App, cfg SimConfig) *Session {
	return starpu.NewSimSession(c, app, cfg)
}

// Simulate runs app on the simulated cluster under s and returns the
// report.
func Simulate(c *Cluster, app *App, s Scheduler) (*Report, error) {
	return starpu.NewSimSession(c, app, SimConfig{}).Run(s)
}

// LiveKernel is a real computation decomposed into work units.
type LiveKernel = starpu.LiveKernel

// LiveWorkerSpec describes one (optionally throttled) live worker.
type LiveWorkerSpec = starpu.LiveWorkerSpec

// LiveConfig configures a live session.
type LiveConfig = starpu.LiveConfig

// RunLive executes kernel on real goroutine workers under s.
func RunLive(kernel LiveKernel, cfg LiveConfig, s Scheduler) (*Report, error) {
	return starpu.NewLiveSession(kernel, cfg).Run(s)
}

// --- Analysis ---------------------------------------------------------------------

// PUUsage summarizes one processing unit's activity over a run.
type PUUsage = metrics.PUUsage

// Usage computes per-unit busy/idle statistics from a report.
func Usage(rep *Report) []PUUsage { return metrics.Usage(rep) }

// MeanIdle returns the mean idle fraction across processing units.
func MeanIdle(rep *Report) float64 { return metrics.MeanIdle(rep) }

// RenderGantt draws an ASCII Gantt chart of a run.
func RenderGantt(rep *Report, width int) string { return metrics.RenderGantt(rep, width) }

// ModelingDistribution returns the block-size split a scheduler computed
// at the end of its modeling/adaptation phase (Fig. 6), or nil.
func ModelingDistribution(rep *Report) []float64 { return metrics.ModelingDistribution(rep) }

// FinalDistribution returns the last recorded block-size split, or nil.
func FinalDistribution(rep *Report) []float64 { return metrics.FinalDistribution(rep) }

// UnitsShare returns the fraction of all work units each processing unit
// processed over the whole run.
func UnitsShare(rep *Report) []float64 { return metrics.UnitsShare(rep) }

// --- Solver -----------------------------------------------------------------------

// SolverCurve is one unit's time model for the block-size selection
// problem.
type SolverCurve = ipm.Curve

// SolverOptions is accepted for compatibility: the water-filling solver has
// nothing to tune, and both of its fields are deprecated and ignored.
type SolverOptions = ipm.Options

// SolverResult reports a computed distribution.
type SolverResult = ipm.Result

// SolveBlockSizes solves the paper's equal-finish-time block distribution
// (Eqs. 3–5): Σx = total, every curve evaluated at its share takes the
// same time. For non-decreasing curves the result is the global optimum:
// no split of total finishes sooner.
func SolveBlockSizes(curves []SolverCurve, total float64, opt SolverOptions) (SolverResult, error) {
	return ipm.Solve(ipm.Problem{Curves: curves, Total: total}, opt)
}
