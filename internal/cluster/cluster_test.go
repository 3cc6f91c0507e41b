package cluster

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"plbhec/internal/device"
)

func TestLinkTransferSeconds(t *testing.T) {
	l := Link{Name: "x", BandwidthBps: 1e9, LatencySec: 1e-4}
	if got := l.TransferSeconds(1e9); math.Abs(got-1.0001) > 1e-12 {
		t.Errorf("TransferSeconds = %g, want 1.0001", got)
	}
	if l.TransferSeconds(0) != 0 {
		t.Error("zero bytes should take zero time")
	}
	if l.TransferSeconds(-5) != 0 {
		t.Error("negative bytes should take zero time")
	}
}

func TestTableIShapes(t *testing.T) {
	for machines := 1; machines <= 4; machines++ {
		c := TableI(Config{Machines: machines, Seed: 1})
		if len(c.Machines) != machines {
			t.Errorf("machines=%d: got %d machines", machines, len(c.Machines))
		}
		// One CPU + one GPU per machine by default.
		if got := len(c.PUs()); got != 2*machines {
			t.Errorf("machines=%d: got %d PUs, want %d", machines, got, 2*machines)
		}
		if !c.Machines[0].IsMaster {
			t.Error("machine A must be the master")
		}
		for _, m := range c.Machines[1:] {
			if m.IsMaster {
				t.Errorf("machine %s wrongly marked master", m.Name)
			}
		}
	}
}

func TestTableIDualGPU(t *testing.T) {
	c := TableI(Config{Machines: 4, Seed: 1, DualGPU: true})
	// B and C gain one GPU each: 8 + 2 = 10 PUs.
	if got := len(c.PUs()); got != 10 {
		t.Errorf("dual-GPU PUs = %d, want 10", got)
	}
	if len(c.Machines[1].GPUs) != 2 || len(c.Machines[2].GPUs) != 2 {
		t.Error("B and C should carry two GPU processors")
	}
	if len(c.Machines[0].GPUs) != 1 || len(c.Machines[3].GPUs) != 1 {
		t.Error("A and D have single GPUs")
	}
}

func TestTableIInvalidMachineCount(t *testing.T) {
	for _, m := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("machines=%d accepted", m)
				}
			}()
			TableI(Config{Machines: m})
		}()
	}
}

func TestPUNamesAndOrder(t *testing.T) {
	c := TableI(Config{Machines: 4, Seed: 1})
	want := []string{
		"A/Xeon E5-2690v2", "A/Tesla K20c",
		"B/i7-920", "B/GTX 295",
		"C/i7-4930K", "C/GTX 680",
		"D/i7-3930K", "D/GTX Titan",
	}
	for i, pu := range c.PUs() {
		if pu.Name() != want[i] {
			t.Errorf("PU %d = %q, want %q", i, pu.Name(), want[i])
		}
		if pu.ID != i {
			t.Errorf("PU %d has ID %d", i, pu.ID)
		}
	}
}

func TestNominalTransferSeconds(t *testing.T) {
	c := TableI(Config{Machines: 2, Seed: 1})
	pus := c.PUs()
	masterCPU, masterGPU := pus[0], pus[1]
	remoteCPU, remoteGPU := pus[2], pus[3]
	const bytes = 1e6

	if masterCPU.NominalTransferSeconds(bytes) != 0 {
		t.Error("master CPU needs no transfer")
	}
	g := masterGPU.NominalTransferSeconds(bytes)
	if g <= 0 {
		t.Error("master GPU needs a PCIe transfer")
	}
	rc := remoteCPU.NominalTransferSeconds(bytes)
	rg := remoteGPU.NominalTransferSeconds(bytes)
	if rc <= g {
		t.Error("remote CPU transfer should exceed master-GPU PCIe-only transfer")
	}
	if rg <= rc {
		t.Error("remote GPU pays NIC + PCIe, more than remote CPU's NIC only")
	}
	if masterGPU.NominalTransferSeconds(0) != 0 {
		t.Error("zero bytes should be free")
	}
}

func TestClusterDeterministicBySeed(t *testing.T) {
	p := device.KernelProfile{
		Name: "k", FlopsPerUnit: 1e9, SaturationUnits: 100,
		MinEfficiencyFrac: 0.2, CPUEfficiency: 0.5, GPUEfficiency: 0.5,
	}
	a := TableI(Config{Machines: 4, Seed: 9, NoiseSigma: 0.05})
	b := TableI(Config{Machines: 4, Seed: 9, NoiseSigma: 0.05})
	for i := range a.PUs() {
		if a.PUs()[i].Dev.ExecSeconds(p, 50) != b.PUs()[i].Dev.ExecSeconds(p, 50) {
			t.Fatal("same seed gave different noise streams")
		}
	}
}

func TestNewRequiresMachinesAndPUs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic with no machines")
		}
	}()
	New()
}

func TestClusterString(t *testing.T) {
	c := TableI(Config{Machines: 3, Seed: 1})
	s := c.String()
	if !strings.Contains(s, "3 machines") || !strings.Contains(s, "6 PUs") {
		t.Errorf("String = %q", s)
	}
}

func TestIsGPU(t *testing.T) {
	c := TableI(Config{Machines: 1, Seed: 1})
	if c.PUs()[0].IsGPU() {
		t.Error("CPU reported as GPU")
	}
	if !c.PUs()[1].IsGPU() {
		t.Error("GPU reported as CPU")
	}
}

func TestSyntheticCluster(t *testing.T) {
	c := Synthetic(8, 4, Config{Seed: 3, NoiseSigma: 0.015})
	if len(c.Machines) != 8 || len(c.PUs()) != 8*5 {
		t.Fatalf("synthetic cluster shape: %v", c)
	}
	if !c.Machines[0].IsMaster || c.Machines[0].Name != "N1" {
		t.Error("machine N1 must be the master")
	}
	// Adjacent machines cycle the catalog: different CPU generations.
	if c.Machines[0].CPU.Name == c.Machines[1].CPU.Name {
		t.Error("adjacent machines should differ in CPU spec")
	}
	// Cycle wraps: machine 5 repeats machine 1's CPU.
	if c.Machines[0].CPU.Name != c.Machines[4].CPU.Name {
		t.Error("catalog cycle should wrap after 4 machines")
	}
	for _, m := range c.Machines {
		if len(m.GPUs) != 4 {
			t.Errorf("machine %s has %d GPUs, want 4", m.Name, len(m.GPUs))
		}
	}
	// Determinism by seed.
	d := Synthetic(8, 4, Config{Seed: 3, NoiseSigma: 0.015})
	for i := range c.PUs() {
		if c.PUs()[i].Name() != d.PUs()[i].Name() {
			t.Fatal("same seed gave a different cluster")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	Synthetic(0, 1, Config{})
}

// TestSyntheticSetupAllocation is the set-up gate of the 100k-unit tier:
// building a 100,000-unit cluster allocates at most 135 MB. A noise stream
// per device was once 6.7 KB; the gate holds it to a small fixed cost.
func TestSyntheticSetupAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := Synthetic(20000, 4, Config{Seed: 1, NoiseSigma: DefaultNoiseSigma})
	runtime.ReadMemStats(&after)
	if len(c.PUs()) != 100000 {
		t.Fatalf("got %d units, want 100000", len(c.PUs()))
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 135 {
		t.Errorf("Synthetic at 100k units allocated %.1f MB, gate 135 MB", mb)
	}
}

var clusterSink *Cluster

// BenchmarkSynthetic builds generated clusters at the 10k- and 100k-unit
// tiers; B/op is the set-up allocation the tiers pay before any run.
func BenchmarkSynthetic(b *testing.B) {
	for _, nodes := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("%dPU", nodes*5), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clusterSink = Synthetic(nodes, 4, Config{Seed: 1, NoiseSigma: DefaultNoiseSigma})
			}
		})
	}
}

func TestHomogeneousCluster(t *testing.T) {
	c := Homogeneous(4, Config{Seed: 1, NoiseSigma: 0.015})
	if len(c.Machines) != 4 || len(c.PUs()) != 8 {
		t.Fatalf("homogeneous cluster shape: %v", c)
	}
	for _, m := range c.Machines {
		if m.CPU.Name != "Xeon E5-2690v2" || len(m.GPUs) != 1 || m.GPUs[0].Name != "Tesla K20c" {
			t.Errorf("machine %s not identical to A", m.Name)
		}
	}
	if !c.Machines[0].IsMaster || c.Machines[1].IsMaster {
		t.Error("master flag wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	Homogeneous(0, Config{})
}
