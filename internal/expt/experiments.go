package expt

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// Options configures an experiment run.
type Options struct {
	Out      io.Writer // text output (tables, traces)
	CSVDir   string    // directory for CSV emission ("" disables)
	Seeds    int       // repetitions per cell (0 = paper's 10)
	Quick    bool      // reduced sizes/seeds for smoke tests and CI
	Markdown bool      // render tables as markdown (cmd/plbreport)

	// Jobs bounds the worker pool that cells and repetitions fan out over
	// (0: runtime.GOMAXPROCS; 1: today's sequential behavior). Results are
	// identical for every value — see Runner.
	Jobs int
	// Ctx cancels in-flight runs (nil: background). plbbench wires ^C here.
	Ctx context.Context
	// Metrics optionally receives the expt_cells_active / expt_cells_done /
	// expt_cell_panics progress gauges.
	Metrics *telemetry.Registry
	// CellTimeout bounds each repetition's wall time (0: unbounded). A
	// repetition that exceeds it is cancelled and recorded in
	// Result.TimedOut instead of hanging the sweep. plbbench wires
	// -cell-timeout here.
	CellTimeout time.Duration

	// pool is the shared runner RunAll threads through every experiment so
	// one -jobs bound governs the whole sweep.
	pool *Runner
}

// runner returns the shared pool, or builds one from the options for a
// standalone experiment invocation.
func (o Options) runner() *Runner {
	if o.pool != nil {
		return o.pool
	}
	r := NewRunner(o.Ctx, o.Jobs)
	r.AttachMetrics(o.Metrics)
	r.SetCellTimeout(o.CellTimeout)
	return r
}

func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return 3
	}
	return DefaultSeeds
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string // e.g. "fig4"
	Paper string // the paper artifact it reproduces
	Desc  string
	Run   func(Options) error
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	var out []Experiment
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunAll executes every registered experiment in ID order. Experiments run
// one after another (their tables print in order), each fanning its cells
// and repetitions over one shared worker pool.
func RunAll(o Options) error {
	o.pool = o.runner()
	for _, e := range All() {
		if err := o.pool.Context().Err(); err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "\n########## %s — %s ##########\n", e.ID, e.Paper)
		if err := e.Run(o); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// size returns the input size an experiment runs at: s itself, or a
// quarter of it in quick mode so test runs stay fast.
func (o Options) size(kind AppKind, s int64) int64 {
	if !o.Quick {
		return s
	}
	switch kind {
	case MM:
		return s / 4
	case GRN:
		return s / 4
	case BS:
		return s / 4
	}
	return s
}

// pilot runs one PLB-HeC repetition of sc on r: the calibration run that
// scales an experiment's perturbation times or feeds its profiles. A pilot
// that did not complete prints one line and returns a nil report, so its
// experiment returns early instead of deriving from a zero makespan.
func pilot(o Options, r *Runner, id string, sc Scenario) (*starpu.Report, error) {
	sc.Seeds = 1
	res, err := r.RunCell(sc, PLBHeC)
	if err != nil {
		return nil, err
	}
	if res.LastReport == nil {
		fmt.Fprintf(o.Out, "%s: pilot run %s did not complete; experiment skipped\n", id, sc.Label())
	}
	return res.LastReport, nil
}

// machinesAxis is the paper's four cluster scenarios.
func (o Options) machinesAxis() []int {
	if o.Quick {
		return []int{1, 4}
	}
	return []int{1, 2, 3, 4}
}
