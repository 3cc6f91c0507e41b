// Package expt defines and runs the paper's evaluation (§V): every figure
// and table has an experiment here that regenerates its data on the
// simulated Table I cluster, with the same workloads, scenario axes
// (1–4 machines, input-size sweeps), repetition counts, and reported
// quantities (execution time, speedup vs. greedy, block-size distribution,
// processing-unit idleness).
package expt

import (
	"fmt"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/fault"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
)

// SchedName identifies a scheduling policy under test.
type SchedName string

// The four policies of the paper, the oracle ablation, and the two §II
// related-work schemes.
const (
	Greedy        SchedName = "greedy"
	Acosta        SchedName = "acosta"
	HDSS          SchedName = "hdss"
	PLBHeC        SchedName = "plb-hec"
	Oracle        SchedName = "oracle"
	StaticProfile SchedName = "static-profile"
	Factoring     SchedName = "factoring"
)

// PaperSchedulers are the four policies compared in the paper, in its
// presentation order.
func PaperSchedulers() []SchedName { return []SchedName{PLBHeC, Acosta, HDSS, Greedy} }

// NewScheduler instantiates a policy with the scenario's initial block
// size (the paper uses the same initial block size for every algorithm).
func NewScheduler(name SchedName, initialBlock float64) (starpu.Scheduler, error) {
	cfg := sched.Config{InitialBlockSize: initialBlock}
	switch name {
	case Greedy:
		return sched.NewGreedy(cfg), nil
	case Acosta:
		return sched.NewAcosta(cfg), nil
	case HDSS:
		return sched.NewHDSS(cfg), nil
	case PLBHeC:
		return sched.NewPLBHeC(cfg), nil
	case Oracle:
		return sched.NewStatic(), nil
	case StaticProfile:
		// Profiles must come from a prior run; without them the split is
		// even — callers wanting real profiles construct the scheduler
		// directly (see the "related" experiment).
		return sched.NewStaticProfile(nil), nil
	case Factoring:
		return sched.NewWeightedFactoring(cfg, nil), nil
	}
	return nil, fmt.Errorf("expt: unknown scheduler %q", name)
}

// AppKind selects one of the paper's three applications.
type AppKind string

// The paper's applications.
const (
	MM  AppKind = "mm"
	GRN AppKind = "grn"
	BS  AppKind = "bs"
)

// CheckApp reports an error unless MakeApp can build kind at size: the kind
// must be one of the three applications and the size positive. Commands
// call it to reject bad flags before building anything.
func CheckApp(kind AppKind, size int64) error {
	switch kind {
	case MM, GRN, BS:
	default:
		return fmt.Errorf("unknown app %q: want mm, grn or bs", kind)
	}
	if size <= 0 {
		return fmt.Errorf("size %d: want a positive input size", size)
	}
	return nil
}

// MakeApp builds an application instance of the given kind and input size
// (matrix order, gene count, or option count).
func MakeApp(kind AppKind, size int64) *apps.App {
	switch kind {
	case MM:
		return apps.NewMatMul(apps.MatMulConfig{N: size})
	case GRN:
		return apps.NewGRN(apps.GRNConfig{Genes: size, Samples: 32})
	case BS:
		return apps.NewBlackScholes(apps.BlackScholesConfig{Options: size, Paths: 8192, Steps: 512})
	}
	panic(fmt.Sprintf("expt: unknown app kind %q", kind))
}

// InitialBlock returns the per-application initial block size used by every
// algorithm, following the paper's empirical rule: sized so the modeling
// phase takes on the order of 10% of the application execution time. Fewer
// machines mean a longer run for the same input, so the same 10% budget
// admits a proportionally larger initial block.
func InitialBlock(kind AppKind, size int64, machines int) float64 {
	scale := 1.0
	switch machines {
	case 1:
		scale = 4
	case 2:
		scale = 2
	case 3:
		scale = 1.4
	}
	var b, min float64
	switch kind {
	case MM:
		b, min = float64(size)/4096, 4
	case GRN:
		b, min = float64(size)/8192, 8
	case BS:
		b, min = float64(size)/512, 64
	default:
		panic(fmt.Sprintf("expt: unknown app kind %q", kind))
	}
	b *= scale
	if b < min {
		b = min
	}
	return b
}

// PaperSizes returns the input sizes the paper sweeps for each application
// (§V.a): matrices 4096²–65536², 60k–140k genes, 10k–500k options. We keep
// three points per application spanning the paper's range.
func PaperSizes(kind AppKind) []int64 {
	switch kind {
	case MM:
		return []int64{4096, 16384, 65536}
	case GRN:
		return []int64{60000, 100000, 140000}
	case BS:
		return []int64{10000, 100000, 500000}
	}
	panic(fmt.Sprintf("expt: unknown app kind %q", kind))
}

// Scenario is one cell of the evaluation grid: the workload, the cluster
// and the runtime configuration every repetition shares.
type Scenario struct {
	Kind     AppKind
	Size     int64
	Machines int
	Seeds    int   // repetitions (the paper reports averages of 10)
	BaseSeed int64 // first seed; repetition i uses BaseSeed+i
	// Passes repeats the input this many times over (a repeated-handle
	// workload: work unit u reads datum u mod Size). <= 1 means one pass.
	Passes int
	// Sim configures every repetition's session: charged overheads, retry,
	// speculation, failure detection and data residency.
	Sim starpu.SimConfig
	// NewCluster builds a repetition's cluster from its seed. Nil means the
	// Table I cluster on Machines nodes with the default noise.
	NewCluster func(seed int64) *cluster.Cluster
	// Prepare, when non-nil, runs on repetition i's fresh session before
	// the run starts: it installs fault schedules and speed perturbations.
	Prepare func(i int, sess *starpu.Session, clu *cluster.Cluster) error
}

// DefaultSeeds is the paper's repetition count.
const DefaultSeeds = 10

// Cluster builds the scenario's cluster for repetition i.
func (sc Scenario) Cluster(i int) *cluster.Cluster {
	seed := sc.BaseSeed + int64(i)
	if sc.NewCluster != nil {
		return sc.NewCluster(seed)
	}
	return cluster.TableI(cluster.Config{
		Machines:   sc.Machines,
		Seed:       seed,
		NoiseSigma: cluster.DefaultNoiseSigma,
	})
}

// Label names the scenario, e.g. "mm-65536-m4".
func (sc Scenario) Label() string {
	return fmt.Sprintf("%s-%d-m%d", sc.Kind, sc.Size, sc.Machines)
}

// speedAt returns a Prepare hook that sets the speed factor of machine m's
// first GPU to factor at engine time t.
func speedAt(t float64, m int, factor float64) func(int, *starpu.Session, *cluster.Cluster) error {
	return func(_ int, sess *starpu.Session, clu *cluster.Cluster) error {
		gpu := clu.Machines[m].GPUs[0]
		return sess.ScheduleAt(t, func() { gpu.SetSpeedFactor(factor) })
	}
}

// faultsAt returns a Prepare hook that installs gen's schedule for each
// repetition, with fault times scaled to horizon.
func faultsAt(gen func(seed int64, horizon float64) fault.Schedule, horizon float64) func(int, *starpu.Session, *cluster.Cluster) error {
	return func(i int, sess *starpu.Session, clu *cluster.Cluster) error {
		return gen(int64(i), horizon).Apply(sess, clu)
	}
}
