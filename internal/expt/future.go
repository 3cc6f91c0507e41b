package expt

import (
	"fmt"

	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

func init() {
	register(Experiment{
		ID:    "cloud",
		Paper: "§VI (future work)",
		Desc:  "Cloud-QoS degradation and device failure mid-run: rebalancing and redistribution under all schedulers",
		Run:   runCloud,
	})
	register(Experiment{
		ID:    "dualgpu",
		Paper: "Table I (dual boards)",
		Desc:  "Dual-GPU boards enabled (GTX 295 and GTX 680 second processors): 10 processing units",
		Run:   runDualGPU,
	})
}

// runCloud evaluates every scheduler under the paper's two envisioned
// non-stationary scenarios: a QoS drop (master GPU at 40%) and a device
// failure (machine B's GPU dies), both mid-run. The
// (perturbation × scheduler) cells and their repetitions fan out over the
// worker pool; rows emit in grid order.
func runCloud(o Options) error {
	size := o.size(MM, 32768)
	r := o.runner()

	// Pilot run to place the perturbation at ~40% of a typical makespan,
	// whatever the scenario scale.
	sc := Scenario{Kind: MM, Size: size, Machines: 2, Seeds: o.seeds(), BaseSeed: 7000}
	pilotRep, err := pilot(o, r, "cloud", sc)
	if pilotRep == nil {
		return err
	}
	perturbAt := 0.4 * pilotRep.Makespan

	perturbations := []struct {
		name    string
		prepare func(int, *starpu.Session, *cluster.Cluster) error
	}{
		{"stationary", nil},
		{"QoS drop (master GPU to 40%)", speedAt(perturbAt, 0, 0.40)},
		{"failure (B's GPU dies)", speedAt(perturbAt, 1, 0)},
	}
	var cells []Cell
	for _, p := range perturbations {
		sc.Prepare = p.prepare
		for _, name := range PaperSchedulers() {
			cells = append(cells, Cell{Sc: sc, Name: name})
		}
	}
	results, err := r.RunCells(cells)
	if err != nil {
		return err
	}

	t := NewTable(fmt.Sprintf("cloud/fault scenarios — MM %d, 2 machines (perturbation at t=%.2fs)", size, perturbAt),
		"Scenario", "Scheduler", "Time s", "Std", "Rebalances")
	per := len(PaperSchedulers())
	for i, res := range results {
		t.AddRow(perturbations[i/per].name, string(res.Sched),
			fmt.Sprintf("%.3f", res.Makespan.Mean), fmt.Sprintf("%.3f", res.Makespan.Std),
			fmt.Sprintf("%.1f", res.SchedStats["rebalances"]))
	}
	return t.Emit(o, "cloud")
}

// runDualGPU compares the default one-GPU-per-machine configuration with
// the dual-processor boards enabled, as Table I describes for the GTX 295
// and GTX 680.
func runDualGPU(o Options) error {
	size := o.size(MM, 65536)
	configs := []struct {
		label string
		dual  bool
	}{
		{"single GPU per machine", false},
		{"dual boards enabled", true},
	}
	scheds := []SchedName{PLBHeC, Greedy}
	var cells []Cell
	for _, c := range configs {
		sc := Scenario{Kind: MM, Size: size, Machines: 4, Seeds: o.seeds(), BaseSeed: 8000,
			NewCluster: func(seed int64) *cluster.Cluster {
				return cluster.TableI(cluster.Config{
					Machines: 4, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma, DualGPU: c.dual,
				})
			}}
		for _, name := range scheds {
			cells = append(cells, Cell{Sc: sc, Name: name})
		}
	}
	results, err := o.runner().RunCells(cells)
	if err != nil {
		return err
	}

	t := NewTable(fmt.Sprintf("dual-GPU boards — MM %d, 4 machines", size),
		"Configuration", "PUs", "Scheduler", "Time s", "Std")
	for i, res := range results {
		t.AddRow(configs[i/len(scheds)].label, len(res.PUNames), string(res.Sched),
			fmt.Sprintf("%.3f", res.Makespan.Mean), fmt.Sprintf("%.3f", res.Makespan.Std))
	}
	if err := t.Emit(o, "dualgpu"); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "(dual boards add a second GTX 295 and GTX 680 processor; total work\n"+
		"capacity rises, and the profile-based split follows automatically)\n")
	return nil
}
