package plbhec_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/expt"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
	"plbhec/internal/telemetry/span"
)

// These tests are the "observer effect" contract of the span layer: running
// the golden scenarios with a telemetry hub and span recorder attached must
// reproduce the exact pinned TaskRecord hashes of the bare runs. A recorder
// is a passive sink — if attaching one ever perturbs a single float of the
// simulation, these fail against the same constants the bare golden tests
// pin, pointing straight at the leak.

// goldenHashWithSpans mirrors goldenHash with a recorder attached to every
// session, and sanity-checks that spans were actually recorded.
func goldenHashWithSpans(t *testing.T) string {
	t.Helper()
	h := fnv.New64a()
	rec := span.NewRecorder()
	for _, c := range goldenCells() {
		for seed := int64(0); seed < 2; seed++ {
			app := expt.MakeApp(c.Kind, c.Size)
			clu := cluster.TableI(cluster.Config{
				Machines: 4, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma,
			})
			s, err := expt.NewScheduler(c.Sched, expt.InitialBlock(c.Kind, c.Size, 4))
			if err != nil {
				t.Fatal(err)
			}
			sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
			tel := telemetry.New()
			rec.Reset()
			tel.Attach(rec)
			sess.AttachTelemetry(tel)
			rep, err := sess.Run(s)
			if err != nil {
				t.Fatalf("%s-%d/%s seed %d: %v", c.Kind, c.Size, c.Sched, seed, err)
			}
			if got := countComputes(rec.Spans()); got != len(rep.Records) {
				t.Fatalf("%s-%d/%s seed %d: %d compute spans for %d records",
					c.Kind, c.Size, c.Sched, seed, got, len(rep.Records))
			}
			hashRecords(h, rep.Records)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func countComputes(spans []span.Span) int {
	n := 0
	for _, sp := range spans {
		if sp.Kind == span.KindCompute {
			n++
		}
	}
	return n
}

// TestGoldenQuickSweepWithSpans: the quick sweep's pinned hash is unchanged
// with span recording enabled.
func TestGoldenQuickSweepWithSpans(t *testing.T) {
	got := goldenHashWithSpans(t)
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenQuickSweepHash {
		t.Fatalf("span recording perturbed the quick sweep: hash %s, golden %s",
			got, goldenQuickSweepHash)
	}
}

// TestGoldenChaosWithSpans: the chaos scenario — requeues, speculation and
// all — hashes identically with a recorder attached, and the recorded DAG
// passes a full attribution pass whose blame vector sums to 1.
func TestGoldenChaosWithSpans(t *testing.T) {
	clu := cluster.TableI(cluster.Config{
		Machines: 2, Seed: 7, NoiseSigma: cluster.DefaultNoiseSigma,
	})
	app := apps.NewMatMul(apps.MatMulConfig{N: 16384})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{
		Retry: true,
	})
	if err := chaosScenario().Apply(sess, clu); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	rec := span.NewRecorder()
	tel.Attach(rec)
	sess.AttachTelemetry(tel)
	rep, err := sess.Run(sched.NewPLBHeC(sched.Config{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	hashRecords(h, rep.Records)
	got := fmt.Sprintf("%016x", h.Sum64())

	an := span.Analyze(rec.Spans(), 3)
	if an.Blocks != len(rep.Records) {
		t.Errorf("analysis saw %d blocks, report has %d", an.Blocks, len(rep.Records))
	}
	if s := an.Blame.Sum(); s < 1-1e-6 || s > 1+1e-6 {
		t.Errorf("chaos blame vector sums to %.9f, want 1", s)
	}

	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenChaosHash {
		t.Fatalf("span recording perturbed the chaos run: hash %s, golden %s",
			got, goldenChaosHash)
	}
}

// TestGoldenMachinePermutationWithSpans: the permutation cluster's pinned
// unit totals are unchanged with a recorder attached.
func TestGoldenMachinePermutationWithSpans(t *testing.T) {
	clu := permClusterAt([2]int{0, 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: 8192})
	sess := starpu.NewSimSession(clu, app, starpu.SimConfig{})
	tel := telemetry.New()
	rec := span.NewRecorder()
	tel.Attach(rec)
	sess.AttachTelemetry(tel)
	rep, err := sess.Run(sched.NewPLBHeC(sched.Config{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	totals := make(map[string]int64)
	for _, r := range rep.Records {
		totals[clu.PUs()[r.PU].Name()] += r.Units
	}
	ids := make([]string, 0, len(totals))
	for id := range totals {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		fmt.Fprintf(h, "%s=%d;", id, totals[id])
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenPermutationHash {
		t.Fatalf("span recording perturbed the block distribution: hash %s, golden %s\ntotals: %v",
			got, goldenPermutationHash, totals)
	}
}
