package expt

import (
	"fmt"

	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// MetricSample is one mid-run snapshot of the telemetry registry.
type MetricSample struct {
	Time float64 // engine time the snapshot was taken
	Snap telemetry.Snapshot
}

// ObservedRun is the outcome of RunObserved: the usual report plus the
// telemetry snapshots taken while the run was in flight.
type ObservedRun struct {
	Report  *starpu.Report
	Samples []MetricSample     // one per requested sample time, in order
	Final   telemetry.Snapshot // registry state at run end
}

// RunObserved executes one (scenario, scheduler) repetition with a
// telemetry hub attached and snapshots the metric registry at the given
// engine times (simulation only — snapshots ride the simulator's event
// queue via ScheduleAt). Experiments use it to assert properties of a run
// while it is still converging — e.g. that the modeling phase finished and
// the distribution settled before a deadline — instead of only inspecting
// the final report.
func RunObserved(sc Scenario, name SchedName, seed int, sampleTimes []float64) (*ObservedRun, error) {
	c := Cell{Sc: sc, Name: name}
	sess, sched, err := c.Build(seed)
	if err != nil {
		return nil, err
	}

	tel := telemetry.New()
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), puNames(sess.PUs())))
	sess.AttachTelemetry(tel)

	run := &ObservedRun{}
	for _, t := range sampleTimes {
		if err := sess.ScheduleAt(t, func() {
			run.Samples = append(run.Samples, MetricSample{Time: t, Snap: tel.Registry().Snapshot()})
		}); err != nil {
			return nil, err
		}
	}

	rep, err := sess.Run(sched)
	if err != nil {
		return nil, fmt.Errorf("expt: observed %s seed %d: %w", c.Label(), seed, err)
	}
	run.Report = rep
	run.Final = tel.Registry().Snapshot()
	return run, nil
}

// puNames lists the processing units' names in cluster order.
func puNames(pus []*cluster.PU) []string {
	names := make([]string, len(pus))
	for i, pu := range pus {
		names[i] = pu.Name()
	}
	return names
}
