package expt

import (
	"fmt"

	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
	"plbhec/internal/stats"
	"plbhec/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "service",
		Paper: "§VI (open-system service mode)",
		Desc:  "Streaming arrivals × multi-app sessions × SLO-aware admission: latency percentiles, goodput, and shed rate under Poisson, bursty, diurnal, and overload traffic",
		Run:   runService,
	})
}

// ServiceScenario is one open-system cell: a service policy (apps, arrival
// processes, admission bounds) run for Seeds repetitions on a Table I
// cluster. Repetition i reseeds both the cluster noise (BaseSeed+i) and
// every arrival stream (Policy.Seed+i), so repetitions are statistically
// independent but the whole cell is a pure function of the scenario.
type ServiceScenario struct {
	Name     string
	Machines int
	Seeds    int   // repetitions (0 = DefaultSeeds)
	BaseSeed int64 // repetition i seeds cluster noise with BaseSeed+i
	Policy   starpu.ServicePolicy
}

// Label names the scenario for error messages, e.g. "svc-poisson-m2".
func (sc ServiceScenario) Label() string {
	return fmt.Sprintf("svc-%s-m%d", sc.Name, sc.Machines)
}

// serviceSource adapts a ServiceScenario to cellSource, the open-system
// counterpart of Cell.
type serviceSource struct {
	sc ServiceScenario
}

func (s serviceSource) Label() string { return s.sc.Label() + "/service-eta" }

func (s serviceSource) Build(i int) (*starpu.Session, starpu.Scheduler, error) {
	sc := s.sc
	clu := cluster.TableI(cluster.Config{
		Machines:   sc.Machines,
		Seed:       sc.BaseSeed + int64(i),
		NoiseSigma: cluster.DefaultNoiseSigma,
	})
	pol := sc.Policy
	pol.Seed += int64(i)
	sess, err := starpu.NewServiceSimSession(clu, pol, starpu.SimConfig{})
	if err != nil {
		return nil, nil, err
	}
	return sess, starpu.ServiceScheduler(), nil
}

// ServiceAppResult aggregates one app's service statistics over a cell's
// repetitions: counters are summed, latency sketches merged in seed order
// (bit-identical at any -jobs), rates summarized per repetition.
type ServiceAppResult struct {
	Name       string
	SLOSeconds float64

	Offered, Admitted, Shed int64
	DeferredTotal           int64
	RequestsDone, WithinSLO int64

	// Latency is the merged per-request latency sketch; the P* fields are
	// its quantiles in seconds.
	Latency     *stats.QuantileSketch
	LatencyP50  float64
	LatencyP99  float64
	LatencyP999 float64

	// GoodputRPS and ShedRate summarize the per-repetition values.
	GoodputRPS stats.Summary
	ShedRate   stats.Summary
	// SLOViolations counts repetitions whose live p99 ever exceeded the SLO.
	SLOViolations int
}

// ServiceResult aggregates the repetitions of one open-system cell.
type ServiceResult struct {
	Scenario ServiceScenario
	Apps     []ServiceAppResult

	Offered, Admitted, Shed int64
	QueuedAtEnd             int64
	Makespan                stats.Summary

	// LastReport is the final surviving repetition's full report.
	LastReport *starpu.Report
	// TimedOut counts repetitions cancelled by the cell timeout.
	TimedOut int
}

// RunServiceCell executes one open-system cell, fanning the repetitions out
// over the runner's pool and aggregating them in seed order.
func (r *Runner) RunServiceCell(sc ServiceScenario) (*ServiceResult, error) {
	if sc.Seeds <= 0 {
		sc.Seeds = DefaultSeeds
	}
	out, err := r.runReps(serviceSource{sc: sc}, sc.Seeds, false)
	if err != nil {
		return nil, err
	}

	res := &ServiceResult{Scenario: sc, TimedOut: out.timedOut}
	var makespans []float64
	goodputs := make([][]float64, len(sc.Policy.Apps))
	shedRates := make([][]float64, len(sc.Policy.Apps))
	for _, rep := range out.reports {
		if rep == nil {
			continue
		}
		sv := rep.Service
		if sv == nil {
			return nil, fmt.Errorf("expt: %s: run produced no service report", sc.Label())
		}
		res.LastReport = rep
		if res.Apps == nil {
			res.Apps = make([]ServiceAppResult, len(sv.Apps))
			for ai := range sv.Apps {
				res.Apps[ai].Name = sv.Apps[ai].Name
				res.Apps[ai].SLOSeconds = sv.Apps[ai].SLOSeconds
				res.Apps[ai].Latency = stats.NewQuantileSketch()
			}
		}
		res.Offered += sv.Offered
		res.Admitted += sv.Admitted
		res.Shed += sv.Shed
		res.QueuedAtEnd += sv.QueuedAtEnd
		makespans = append(makespans, rep.Makespan)
		for ai := range sv.Apps {
			a := &sv.Apps[ai]
			out := &res.Apps[ai]
			out.Offered += a.Offered
			out.Admitted += a.Admitted
			out.Shed += a.Shed
			out.DeferredTotal += a.DeferredTotal
			out.RequestsDone += a.RequestsDone
			out.WithinSLO += a.WithinSLO
			if a.Latency != nil {
				out.Latency.Merge(a.Latency)
			}
			goodputs[ai] = append(goodputs[ai], a.GoodputRPS)
			shedRates[ai] = append(shedRates[ai], a.ShedRate)
			if a.SLOViolationAt >= 0 {
				out.SLOViolations++
			}
		}
	}
	res.Makespan = stats.Summarize(makespans)
	for ai := range res.Apps {
		out := &res.Apps[ai]
		out.GoodputRPS = stats.Summarize(goodputs[ai])
		out.ShedRate = stats.Summarize(shedRates[ai])
		var lat [3]float64
		out.Latency.QuantilesInto([]float64{0.5, 0.99, 0.999}, lat[:])
		out.LatencyP50, out.LatencyP99, out.LatencyP999 = lat[0], lat[1], lat[2]
	}
	return res, nil
}

// serviceCapacityRPS estimates the cluster's aggregate request service rate
// for a profile at the given request size: each unit contributes the
// reciprocal of its noise-free per-request seconds (transfer excluded — an
// optimistic bound, which is what load factors should be relative to).
func serviceCapacityRPS(clu *cluster.Cluster, prof func() (starpu.ServiceApp, int64)) float64 {
	app, units := prof()
	var rps float64
	for _, pu := range clu.PUs() {
		if t := pu.Dev.NominalExecSeconds(app.Profile, float64(units)); t > 0 {
			rps += 1 / t
		}
	}
	return rps
}

// serviceApps returns the two applications the service sweep multiplexes:
// a latency-sensitive Black-Scholes pricer (small requests, tight SLO) and
// a throughput-oriented MatMul job (large requests, loose SLO).
func serviceApps(o Options) []starpu.ServiceApp {
	bs := MakeApp(BS, o.size(BS, 100000)).Profile()
	mm := MakeApp(MM, o.size(MM, 8192)).Profile()
	return []starpu.ServiceApp{
		{Name: "bs", Profile: bs, SLOSeconds: 0.25,
			Arrivals: workload.Spec{Kind: workload.Poisson, Units: 64, Seed: 11}},
		{Name: "mm", Profile: mm, SLOSeconds: 1.0,
			Arrivals: workload.Spec{Kind: workload.Poisson, Units: 256, Seed: 23}},
	}
}

// runService sweeps the open-system service mode: arrival-process shapes at
// moderate load, then an overload point with admission control on vs off
// (Admission.Disabled) — the comparison that shows admission holding p99
// within the SLO by shedding, where the open door lets latency diverge.
func runService(o Options) error {
	r := o.runner()
	machines := 2
	horizon := 20.0
	if o.Quick {
		horizon = 5
	}

	apps := serviceApps(o)
	// Derive per-app rates from cluster capacity so the sweep stays
	// meaningful across -quick input scaling.
	clu := cluster.TableI(cluster.Config{Machines: machines})
	rates := make([]float64, len(apps))
	for i := range apps {
		i := i
		rates[i] = serviceCapacityRPS(clu, func() (starpu.ServiceApp, int64) {
			return apps[i], apps[i].Arrivals.Units
		})
	}

	type svcCell struct {
		name    string
		load    float64 // offered load as a fraction of capacity
		kind    workload.Kind
		noAdmit bool
	}
	cells := []svcCell{
		{"poisson", 0.5, workload.Poisson, false},
		{"bursty", 0.5, workload.Bursty, false},
		{"diurnal", 0.5, workload.Diurnal, false},
		{"overload-admit", 2.0, workload.Poisson, false},
		{"overload-open", 2.0, workload.Poisson, true},
	}

	results := make([]*ServiceResult, len(cells))
	err := r.forEach(len(cells), func(ci int) error {
		c := cells[ci]
		pol := starpu.ServicePolicy{
			Apps:    make([]starpu.ServiceApp, len(apps)),
			Horizon: horizon,
		}
		for i := range apps {
			pol.Apps[i] = apps[i]
			pol.Apps[i].Arrivals.Kind = c.kind
			pol.Apps[i].Arrivals.Rate = c.load * rates[i]
		}
		// A shallow queue bounds the waiting time any admitted request can
		// accumulate, keeping the achieved p99 near the SLO instead of
		// letting a deep backlog poison the latency distribution before
		// the p99 signal can react.
		pol.Admission.MaxInFlight = 32
		pol.Admission.MaxQueue = 16
		pol.Admission.Disabled = c.noAdmit
		res, err := r.RunServiceCell(ServiceScenario{
			Name:     c.name,
			Machines: machines,
			Seeds:    o.seeds(),
			BaseSeed: 9300,
			Policy:   pol,
		})
		if err != nil {
			return err
		}
		results[ci] = res
		return nil
	})
	if err != nil {
		return err
	}

	t := NewTable(fmt.Sprintf("service mode — 2 apps on %d machines, horizon %.0fs (load as fraction of aggregate capacity)", machines, horizon),
		"Scenario", "App", "SLO s", "Offered", "Admitted", "Shed", "p50 s", "p99 s", "Goodput r/s", "Shed rate", "SLO viol")
	for ci, c := range cells {
		res := results[ci]
		for _, a := range res.Apps {
			t.AddRow(fmt.Sprintf("%s ×%.1f", c.name, c.load), a.Name,
				fmt.Sprintf("%.2f", a.SLOSeconds),
				fmt.Sprintf("%d", a.Offered), fmt.Sprintf("%d", a.Admitted),
				fmt.Sprintf("%d", a.Shed),
				fmt.Sprintf("%.4f", a.LatencyP50), fmt.Sprintf("%.4f", a.LatencyP99),
				fmt.Sprintf("%.1f", a.GoodputRPS.Mean),
				fmt.Sprintf("%.3f", a.ShedRate.Mean),
				fmt.Sprintf("%d/%d", a.SLOViolations, res.Scenario.Seeds))
		}
	}
	return t.Emit(o, "service")
}
