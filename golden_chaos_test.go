package plbhec_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/fault"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
)

// goldenChaosHash pins the full TaskRecord stream of the canonical chaos
// scenario on amd64: a PLB-HeC run through a brown-out, a ramped degrade, a
// link slowdown and a device death, with the retry machinery engaged. It is
// the determinism contract of the fault-injection subsystem: the same
// (schedule, seed) must reproduce every abort, requeue and backoff
// bit-exactly. Update it only for deliberate numeric changes, alongside
// goldenQuickSweepHash.
const goldenChaosHash = "8e1457f32687208e"

// goldenPermutationHash pins PLB-HeC's per-identity unit totals on the
// 3-machine permutation cluster (amd64). Together with
// TestGoldenMachinePermutation's relabeling check it freezes the block
// distribution itself, not just its permutation-invariance.
const goldenPermutationHash = "7b2d5cbe6b3ca188"

// chaosScenario is the canonical mixed-fault schedule used by the golden
// test: every declarative fault kind except Straggler, timed to land inside
// the run (pilot makespan is ~4 s at this size).
func chaosScenario() fault.Schedule {
	return fault.Schedule{Name: "golden-chaos", Specs: []fault.FaultSpec{
		{Kind: fault.LinkSlow, At: 0.5, Machine: 1, Link: fault.NIC, Severity: 0.3, Duration: 2},
		{Kind: fault.BrownOut, At: 1, PU: 2, Duration: 1},
		{Kind: fault.Degrade, At: 1.5, PU: 1, Severity: 0.6, Ramp: 1},
		{Kind: fault.DeviceDeath, At: 2.5, PU: 3},
	}}
}

func chaosRecords(t *testing.T) []starpu.TaskRecord {
	t.Helper()
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
	rep, err := sess.Run(sched.NewPLBHeC(sched.Config{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	return rep.Records
}

func chaosHash(t *testing.T) string {
	h := fnv.New64a()
	hashRecords(h, chaosRecords(t))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenChaosDeterminism asserts the chaos scenario's TaskRecord stream
// — including every requeue and relaunch the faults provoke — is identical
// run-to-run and matches the committed hash on amd64.
func TestGoldenChaosDeterminism(t *testing.T) {
	got := chaosHash(t)
	if again := chaosHash(t); again != got {
		t.Fatalf("chaos run not deterministic run-to-run: %s then %s", got, again)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenChaosHash {
		t.Fatalf("chaos TaskRecord stream changed: hash %s, golden %s\n"+
			"If this change is intentional, update goldenChaosHash.", got, goldenChaosHash)
	}
}

// permClusterAt builds the 3-node permutation cluster with its two
// non-master machines in the given order. Devices are seeded by machine
// identity, not position, so a permutation is a pure relabeling.
func permClusterAt(order [2]int) *cluster.Cluster {
	const sigma = cluster.DefaultNoiseSigma
	nic := cluster.Link{Name: "10GbE", BandwidthBps: 1.17e9, LatencySec: 50e-6}
	pcie := cluster.Link{Name: "PCIe2x16", BandwidthBps: 6e9, LatencySec: 15e-6}
	build := []func() *cluster.Machine{
		func() *cluster.Machine {
			return &cluster.Machine{Name: "B",
				CPU:  device.New(device.CoreI7920(), 200, sigma),
				GPUs: []*device.Device{device.New(device.GTX295(), 201, sigma)},
				NIC:  nic, PCIe: pcie}
		},
		func() *cluster.Machine {
			return &cluster.Machine{Name: "C",
				CPU:  device.New(device.CoreI74930K(), 300, sigma),
				GPUs: []*device.Device{device.New(device.GTX680(), 301, sigma)},
				NIC:  nic, PCIe: pcie}
		},
	}
	master := &cluster.Machine{Name: "A",
		CPU:  device.New(device.XeonE52690V2(), 100, sigma),
		GPUs: []*device.Device{device.New(device.TeslaK20c(), 101, sigma)},
		NIC:  nic, PCIe: pcie}
	return cluster.New(master, build[order[0]](), build[order[1]]())
}

func permTotals(t *testing.T, order [2]int) map[string]int64 {
	t.Helper()
	clu := permClusterAt(order)
	app := apps.NewMatMul(apps.MatMulConfig{N: 8192})
	rep, err := starpu.NewSimSession(clu, app, starpu.SimConfig{}).
		Run(sched.NewPLBHeC(sched.Config{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, r := range rep.Records {
		out[clu.PUs()[r.PU].Name()] += r.Units
	}
	return out
}

// TestGoldenMachinePermutation: the metamorphic relation — permuting the
// non-master machines must leave each identity's unit total unchanged — and
// the canonical totals themselves, pinned as a hash.
func TestGoldenMachinePermutation(t *testing.T) {
	a := permTotals(t, [2]int{0, 1})
	b := permTotals(t, [2]int{1, 0})
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		if a[id] != b[id] {
			t.Errorf("identity %q: %d units vs %d after permutation", id, a[id], b[id])
		}
		fmt.Fprintf(h, "%s=%d;", id, a[id])
	}
	got := fmt.Sprintf("%016x", h.Sum64())
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden constant pinned on amd64; %s computed %s", runtime.GOARCH, got)
	}
	if got != goldenPermutationHash {
		t.Fatalf("PLB-HeC block distribution changed: hash %s, golden %s\n"+
			"totals: %v\nIf this change is intentional, update goldenPermutationHash.",
			got, goldenPermutationHash, a)
	}
}
