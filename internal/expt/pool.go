package expt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"plbhec/internal/telemetry"
)

// Runner executes experiment cells and their repetitions on a bounded
// worker pool. It is the parallel counterpart of the strictly sequential
// seed-state harness: cells and (scenario, scheduler, seed) repetitions fan
// out over at most Jobs workers, while every aggregation happens in input
// order afterwards, so results are bit-for-bit identical to a sequential
// run — only the wall clock changes. (The one exception is counters that
// *measure* host wall time, like the scheduler's solverSeconds: those are
// nondeterministic even between two sequential runs.) A Runner with
// Jobs == 1 degenerates to a plain loop on the calling goroutine.
//
// Three properties hold for every fan-out:
//
//   - determinism: per-index results land in preallocated slots and are
//     reduced in index order, never in completion order;
//   - cancellation: the context passed to NewRunner is threaded into every
//     starpu.Session, so ^C (or a test timeout) aborts in-flight runs at
//     their next task completion;
//   - containment: a panic inside one cell (an engine bug, a scheduler
//     stepping outside its contract) becomes that cell's error instead of
//     tearing down the whole sweep.
type Runner struct {
	ctx  context.Context
	jobs int
	// sem holds the worker tokens *beyond* the calling goroutine: a
	// fan-out first tries to hand an index to a free worker and otherwise
	// runs it inline. Nested fan-outs (cells over seeds) therefore never
	// deadlock — a level that finds the pool saturated just degrades to
	// sequential execution on the token it already holds.
	sem chan struct{}

	// cellTimeout bounds each repetition's wall time: when > 0, runReps
	// wraps the session context in a deadline and records a repetition
	// that blows it as timed-out instead of hanging the sweep (or failing
	// it — a stuck cell is a data point, not a harness error).
	cellTimeout time.Duration

	cellsActive  *telemetry.Gauge
	cellsDone    *telemetry.Gauge
	cellPanics   *telemetry.Gauge
	repsTimedOut *telemetry.Gauge
}

// NewRunner builds a pool bounded to jobs concurrent workers (jobs <= 0
// selects runtime.GOMAXPROCS(0)). ctx cancels in-flight work; nil means
// never cancelled.
func NewRunner(ctx context.Context, jobs int) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	r := &Runner{ctx: ctx, jobs: jobs, sem: make(chan struct{}, jobs-1)}
	r.AttachMetrics(nil)
	return r
}

// Jobs returns the pool's worker bound.
func (r *Runner) Jobs() int { return r.jobs }

// Context returns the runner's cancellation context (never nil).
func (r *Runner) Context() context.Context { return r.ctx }

// SetCellTimeout bounds each repetition's wall time (0 or negative: no
// bound). A repetition that exceeds it has its session context cancelled
// and is recorded in Result.TimedOut rather than aborting the sweep.
func (r *Runner) SetCellTimeout(d time.Duration) { r.cellTimeout = d }

// AttachMetrics publishes the runner's progress gauges on reg:
//
//	expt_cells_active   — cells currently executing
//	expt_cells_done     — cells finished (ok or failed)
//	expt_cell_panics    — panics contained into per-cell errors
//	expt_reps_timed_out — repetitions cancelled by the cell timeout
//
// A nil registry detaches the gauges (they still work, nobody reads them),
// so runner code updates them unconditionally.
func (r *Runner) AttachMetrics(reg *telemetry.Registry) {
	reg.Help("expt_cells_active", "Experiment cells currently executing.")
	reg.Help("expt_cells_done", "Experiment cells finished, successfully or not.")
	reg.Help("expt_cell_panics", "Panics contained into per-cell errors.")
	reg.Help("expt_reps_timed_out", "Repetitions cancelled by the cell timeout.")
	r.cellsActive = reg.Gauge("expt_cells_active")
	r.cellsDone = reg.Gauge("expt_cells_done")
	r.cellPanics = reg.Gauge("expt_cell_panics")
	r.repsTimedOut = reg.Gauge("expt_reps_timed_out")
}

// forEach runs fn(i) for every i in [0, n), fanning indices out over the
// pool's free workers and running the rest inline on the calling goroutine.
// All indices execute even when some fail (no mid-sweep abort beyond
// context cancellation); the error for the smallest index wins, so the
// reported failure is independent of scheduling order. Panics in fn are
// converted to errors.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := r.ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		select {
		case r.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-r.sem }()
				errs[i] = r.protect(i, fn)
			}(i)
		default:
			errs[i] = r.protect(i, fn)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// protect runs fn(i), converting a panic into an error so one broken cell
// cannot tear down the sweep.
func (r *Runner) protect(i int, fn func(int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			r.cellPanics.Add(1)
			err = fmt.Errorf("expt: panic in worker %d: %v", i, p)
		}
	}()
	return fn(i)
}

// RunCells executes the cells on the pool and returns their results in
// input order. Every cell runs to completion even if another fails; the
// first (lowest-index) error is returned alongside whatever succeeded.
func (r *Runner) RunCells(cells []Cell) ([]*Result, error) {
	out := make([]*Result, len(cells))
	err := r.forEach(len(cells), func(i int) error {
		res, err := r.runCell(cells[i])
		out[i] = res
		return err
	})
	return out, err
}
