package expt

import (
	"context"
	"fmt"
	"testing"

	"plbhec/internal/starpu"
)

// localitySmokeScenario is the repeated-handle workload the CI smoke gate
// runs: a small matrix processed four times over on 4 machines, so three of
// every four touches hit data a residency-aware runtime already shipped.
func localitySmokeScenario() Scenario {
	return Scenario{
		Kind: MM, Size: 4096, Machines: 4, Seeds: 2,
		Passes: 4,
		Sim:    starpu.SimConfig{Locality: true},
	}
}

// TestLocalitySmokeTransferDrop is the acceptance gate for the residency
// subsystem: on the repeated-handle workload every paper scheduler must ship
// at least 30% fewer bytes than the legacy re-pay-every-transfer accounting
// for the same record stream, and no link may ever be busier than the run is
// long.
func TestLocalitySmokeTransferDrop(t *testing.T) {
	r := NewRunner(context.Background(), 2)
	for _, name := range PaperSchedulers() {
		res, err := r.RunCell(localitySmokeScenario(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loc := res.LastReport.Locality
		if loc == nil {
			t.Fatalf("%s: locality run carried no residency report", name)
		}
		baseline := loc.BaselineBytes()
		if baseline <= 0 {
			t.Fatalf("%s: degenerate baseline %v", name, baseline)
		}
		if drop := loc.SavedBytes / baseline; drop < 0.30 {
			t.Errorf("%s: transfer-byte drop %.1f%% < 30%% (shipped %.0f of %.0f)",
				name, 100*drop, loc.TransferredBytes, baseline)
		}
		for link, busy := range res.LastReport.LinkBusy {
			if busy > res.LastReport.Makespan*(1+1e-9) {
				t.Errorf("%s: link %s busy %.6fs exceeds makespan %.6fs",
					name, link, busy, res.LastReport.Makespan)
			}
		}
	}
}

// TestLocalityJobsDeterminism: a locality-enabled cell must produce
// bit-identical record streams per seed whether its repetitions run
// sequentially or fan out over a parallel pool — the residency cache is
// per-session state and must not leak across goroutines.
func TestLocalityJobsDeterminism(t *testing.T) {
	sweep := func(jobs int) []string {
		r := NewRunner(context.Background(), jobs)
		sc := localitySmokeScenario()
		sc.Seeds = 3
		hashes := make([]string, sc.Seeds)
		err := r.forEach(sc.Seeds, func(i int) error {
			one := sc
			one.Seeds = 1
			one.BaseSeed = sc.BaseSeed + int64(i)
			res, err := r.RunCell(one, PLBHeC)
			if err != nil {
				return err
			}
			hashes[i] = hashReport(res.LastReport)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return hashes
	}
	seq := sweep(1)
	par := sweep(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("seed %d: -jobs 1 hash %s != -jobs 4 hash %s", i, seq[i], par[i])
		}
	}
	if again := sweep(4); fmt.Sprint(again) != fmt.Sprint(par) {
		t.Errorf("parallel locality sweep not stable run-to-run: %v then %v", par, again)
	}
}

// TestLocalityNilPolicyIdentical: threading Passes through a Scenario with
// locality off must not perturb the legacy record stream — WithPasses(1)
// returns the app unchanged and Locality off leaves the session in legacy
// mode, so the single-pass hash matches a Scenario that never mentions
// either field.
func TestLocalityNilPolicyIdentical(t *testing.T) {
	r := NewRunner(context.Background(), 1)
	plain := Scenario{Kind: MM, Size: 4096, Machines: 4, Seeds: 1}
	spelled := plain
	spelled.Passes = 1
	spelled.Sim.Locality = false
	a, err := r.RunCell(plain, PLBHeC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunCell(spelled, PLBHeC)
	if err != nil {
		t.Fatal(err)
	}
	if ha, hb := hashReport(a.LastReport), hashReport(b.LastReport); ha != hb {
		t.Errorf("explicit zero-value locality fields changed the stream: %s != %s", ha, hb)
	}
}
