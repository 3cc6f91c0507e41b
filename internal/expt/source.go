package expt

import (
	"context"
	"errors"
	"fmt"

	"plbhec/internal/starpu"
)

// cellSource is the workload half of a cell: it knows how to build one
// repetition's session and the scheduler that drives it. The experiment
// half — fan-out, per-cell timeouts, cancellation, lost-repetition
// accounting and seed-order aggregation — lives in Runner.runReps, shared
// between closed-system cells (Cell) and open-system service cells
// (serviceSource).
type cellSource interface {
	// Label names the cell for error messages, e.g. "mm-65536-m4/plb-hec".
	Label() string
	// Build constructs repetition i's session and scheduler. The session
	// must be fresh (sessions are single-run).
	Build(i int) (*starpu.Session, starpu.Scheduler, error)
}

// Cell names one (scenario, scheduler) combination of an experiment grid.
type Cell struct {
	Sc   Scenario
	Name SchedName
	// Sched, when non-nil, builds each repetition's scheduler in place of
	// NewScheduler(Name, InitialBlock(...)); Name then only labels the
	// cell. It serves tuned variants and profile-fed schedulers.
	Sched func() starpu.Scheduler
}

// Label names the cell, e.g. "mm-65536-m4/plb-hec".
func (c Cell) Label() string { return c.Sc.Label() + "/" + string(c.Name) }

// Build constructs repetition i's session: the scenario's cluster and
// input, its SimConfig, and its Prepare hook.
func (c Cell) Build(i int) (*starpu.Session, starpu.Scheduler, error) {
	sc := c.Sc
	app := MakeApp(sc.Kind, sc.Size).WithPasses(sc.Passes)
	clu := sc.Cluster(i)
	sess := starpu.NewSimSession(clu, app, sc.Sim)
	if sc.Prepare != nil {
		if err := sc.Prepare(i, sess, clu); err != nil {
			return nil, nil, fmt.Errorf("expt: %s seed %d: %w", c.Label(), i, err)
		}
	}
	if c.Sched != nil {
		return sess, c.Sched(), nil
	}
	s, err := NewScheduler(c.Name, InitialBlock(sc.Kind, sc.Size, sc.Machines))
	if err != nil {
		return nil, nil, err
	}
	return sess, s, nil
}

// lossy reports whether a repetition that ends in starpu.ErrFailedDevice is
// a lost data point: with retry or failure detection on, a fault schedule
// may legitimately exhaust every unit. Without them it is the cell's error.
func (c Cell) lossy() bool { return c.Sc.Sim.Retry || c.Sc.Sim.Health != nil }

// reps is what runReps hands back: repetition i's report in slot i, nil for
// a repetition that timed out or was lost.
type reps struct {
	reports        []*starpu.Report
	timedOut, lost int
}

// runReps fans a source's repetitions over the runner's pool. Repetition i
// lands its report in slot i. A repetition has one of four outcomes:
//
//   - done: its report fills the slot;
//   - timed out: the per-cell deadline cancelled it while the parent
//     context is still alive — a data point, not a sweep failure;
//   - lost: it ended in starpu.ErrFailedDevice and lossy is set;
//   - failed: any other error, which becomes the cell's error.
//
// Aggregation happens post-hoc in seed order, which is what makes the
// parallel runner's floating-point results bit-identical to the sequential
// one's.
func (r *Runner) runReps(src cellSource, seeds int, lossy bool) (reps, error) {
	r.cellsActive.Add(1)
	defer func() {
		r.cellsActive.Add(-1)
		r.cellsDone.Add(1)
	}()
	out := reps{reports: make([]*starpu.Report, seeds)}
	timedOut := make([]bool, seeds)
	err := r.forEach(seeds, func(i int) error {
		sess, s, err := src.Build(i)
		if err != nil {
			return err
		}
		ctx := r.ctx
		if r.cellTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(r.ctx, r.cellTimeout)
			defer cancel()
		}
		sess.SetContext(ctx)
		rep, err := sess.Run(s)
		switch {
		case err == nil:
			out.reports[i] = rep
		case errors.Is(ctx.Err(), context.DeadlineExceeded) && r.ctx.Err() == nil:
			timedOut[i] = true
		case !lossy || !errors.Is(err, starpu.ErrFailedDevice):
			return fmt.Errorf("expt: %s seed %d: %w", src.Label(), i, err)
		}
		return nil
	})
	for i, rep := range out.reports {
		switch {
		case timedOut[i]:
			out.timedOut++
		case rep == nil:
			out.lost++
		}
	}
	r.repsTimedOut.Add(float64(out.timedOut))
	return out, err
}
