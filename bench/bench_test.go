package main

import (
	"slices"
	"strings"
	"testing"

	"plbhec/internal/starpu"
)

// TestWorkloadsSmoke runs every workload at toy scale, one untraced and one
// traced iteration each, and checks that every metric BENCHMARK.json names
// is emitted, finite and no other; that the end-to-end metrics are nonzero;
// that every output passed its checks; and that the layers' self times tile
// the traced wall.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := measure(w, toyConfig(), 1, 0, true)
			for _, traced := range []bool{false, true} {
				res, violations := r.report(traced)
				if !res.Correct || len(violations) > 0 {
					t.Fatalf("traced=%t: %d of %d runs failed: %s", traced, res.Failed, res.Attempted,
						strings.Join(violations, "; "))
				}
				want := e2e
				if traced {
					want = layers
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if !traced && m.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", name)
					}
				}
				slices.Sort(got)
				want = slices.Clone(want)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("traced=%t: emitted %v, BENCHMARK.json names %v", traced, got, want)
				}
			}
		})
	}
}

func TestCheckRecordsCatchesLostAndRepeatedUnits(t *testing.T) {
	rep := &starpu.Report{TotalUnits: 10, Makespan: 3, Records: []starpu.TaskRecord{
		{Seq: 0, Lo: 0, Hi: 4, Units: 4, ExecEnd: 1},
		{Seq: 1, Lo: 4, Hi: 10, Units: 6, ExecEnd: 3},
	}}
	if err := checkRecords(rep); err != nil {
		t.Fatalf("valid records rejected: %v", err)
	}
	for name, mutate := range map[string]func(*starpu.Report){
		"lost":     func(r *starpu.Report) { r.Records = r.Records[:1] },
		"repeated": func(r *starpu.Report) { r.Records = append(r.Records, r.Records[0]) },
		"late":     func(r *starpu.Report) { r.Records[1].ExecEnd = 4 },
		"bad size": func(r *starpu.Report) { r.Records[0].Units = 3 },
	} {
		bad := *rep
		bad.Records = slices.Clone(rep.Records)
		mutate(&bad)
		if checkRecords(&bad) == nil {
			t.Errorf("%s records accepted", name)
		}
	}
}

func TestCheckServiceCatchesBrokenConservation(t *testing.T) {
	app := starpu.AppServiceStats{Name: "a", Offered: 10, Admitted: 7, Shed: 2, QueuedAtEnd: 1, RequestsDone: 7}
	rep := &starpu.Report{Service: &starpu.ServiceReport{
		Apps: []starpu.AppServiceStats{app}, Offered: 10, Admitted: 7, Shed: 2, QueuedAtEnd: 1,
	}}
	if err := checkService(rep); err != nil {
		t.Fatalf("valid service report rejected: %v", err)
	}
	rep.Service.Apps[0].RequestsDone = 8
	if checkService(rep) == nil {
		t.Error("more requests done than admitted accepted")
	}
	rep.Service.Apps[0] = app
	rep.Service.Shed = 3
	if checkService(rep) == nil {
		t.Error("offered != admitted + shed + queued accepted")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		v := slices.Clone(base)
		for i := range v {
			v[i] += d
		}
		return v
	}
	for _, c := range []struct {
		name  string
		cur   []float64
		bound float64
		want  string
	}{
		{"faster", shift(-10), 0.05, "better"},
		{"same", base, 0.05, "within bound"},
		{"slower within bound", shift(3), 0.05, "within bound"},
		{"slower past bound", shift(10), 0.05, "REGRESSION"},
		{"spread wider than bound", shift(10), 0.01, "unresolved"},
		{"spread wider than bound but every run better", shift(-20), 0.01, "better"},
	} {
		if got, _, _ := verdict(base, c.cur, false, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
