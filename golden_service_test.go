package plbhec_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"plbhec/internal/expt"
	"plbhec/internal/starpu"
	"plbhec/internal/workload"
)

// goldenServiceHashConst pins the open-system service mode the same way
// goldenQuickSweepHash pins the closed-system sweep: the full TaskRecord
// stream of the final repetition of every golden service cell, plus the
// seed-order-merged latency quantiles and admission counters, hashed
// bit-exactly on amd64. The closed-system contracts (goldenQuickSweepHash,
// goldenChaosHash, goldenPermutationHash) are asserted by golden_test.go and
// golden_chaos_test.go in the same suite — service mode must leave all three
// untouched, since sessions without a ServicePolicy never enter its code.
const goldenServiceHashConst = "579520db8e71fabf"

// goldenServiceCells is a representative slice of the service sweep: a
// Poisson cell and a bursty cell, both two-app, with bounded admission.
func goldenServiceCells() []expt.ServiceScenario {
	mk := func(name string, kind workload.Kind) expt.ServiceScenario {
		return expt.ServiceScenario{
			Name:     name,
			Machines: 2,
			Seeds:    2,
			BaseSeed: 9400,
			Policy: starpu.ServicePolicy{
				Apps: []starpu.ServiceApp{
					{Name: "bs", Profile: expt.MakeApp(expt.BS, 100000).Profile(), SLOSeconds: 0.25,
						Arrivals: workload.Spec{Kind: kind, Rate: 40, Units: 64, Seed: 11}},
					{Name: "mm", Profile: expt.MakeApp(expt.MM, 2048).Profile(), SLOSeconds: 1.0,
						Arrivals: workload.Spec{Kind: kind, Rate: 20, Units: 64, Seed: 23}},
				},
				Admission: workload.AdmissionPolicy{MaxInFlight: 32, MaxQueue: 16},
				Horizon:   3,
			},
		}
	}
	return []expt.ServiceScenario{mk("poisson", workload.Poisson), mk("bursty", workload.Bursty)}
}

// goldenServiceHash runs the golden service cells at the given parallelism
// and folds the record streams, merged latency quantiles, and admission
// accounting into one hash.
func goldenServiceHash(t *testing.T, jobs int) string {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	f := func(v float64) { word(math.Float64bits(v)) }
	r := expt.NewRunner(context.Background(), jobs)
	for _, sc := range goldenServiceCells() {
		res, err := r.RunServiceCell(sc)
		if err != nil {
			t.Fatalf("jobs=%d %s: %v", jobs, sc.Label(), err)
		}
		hashRecords(h, res.LastReport.Records)
		word(uint64(res.Offered))
		word(uint64(res.Admitted))
		word(uint64(res.Shed))
		word(uint64(res.QueuedAtEnd))
		f(res.Makespan.Mean)
		f(res.Makespan.Std)
		for _, a := range res.Apps {
			word(uint64(a.Offered))
			word(uint64(a.Admitted))
			word(uint64(a.Shed))
			word(uint64(a.DeferredTotal))
			word(uint64(a.RequestsDone))
			word(uint64(a.WithinSLO))
			f(a.LatencyP50)
			f(a.LatencyP99)
			f(a.LatencyP999)
			f(a.GoodputRPS.Mean)
			f(a.ShedRate.Mean)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenServiceDeterminism asserts the service sweep's record stream and
// aggregated accounting are bit-identical to the committed hash (amd64; other
// platforms check run-to-run stability only, as in the quick-sweep golden).
func TestGoldenServiceDeterminism(t *testing.T) {
	got := goldenServiceHash(t, 1)
	if again := goldenServiceHash(t, 1); again != got {
		t.Fatalf("service sweep not deterministic run-to-run: %s then %s", got, again)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenServiceHashConst {
		t.Fatalf("service record stream changed: hash %s, golden %s\n"+
			"If this change is intentional, update goldenServiceHashConst and document\n"+
			"the observed metric deltas in EXPERIMENTS.md.", got, goldenServiceHashConst)
	}
}

// TestGoldenServiceParallelInvariance asserts the open-system cell
// aggregation is bit-identical at -jobs 1 and -jobs 8: repetition fan-out
// must never change results, only wall-clock time.
func TestGoldenServiceParallelInvariance(t *testing.T) {
	h1 := goldenServiceHash(t, 1)
	h8 := goldenServiceHash(t, 8)
	if h1 != h8 {
		t.Fatalf("service results differ across -jobs: jobs=1 %s, jobs=8 %s", h1, h8)
	}
}
