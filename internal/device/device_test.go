package device

import (
	"math"
	"testing"
	"testing/quick"
)

func mmProfile() KernelProfile {
	return KernelProfile{
		Name:                 "test-mm",
		FlopsPerUnit:         2 * 16384 * 16384,
		BytesPerUnit:         12 * 16384,
		TransferBytesPerUnit: 8 * 16384,
		SaturationUnits:      150,
		MinEfficiencyFrac:    0.22,
		CPUEfficiency:        0.15,
		GPUEfficiency:        0.65,
	}
}

func TestProfileValidate(t *testing.T) {
	if err := mmProfile().Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	bad := mmProfile()
	bad.FlopsPerUnit = 0
	if bad.Validate() == nil {
		t.Error("zero FlopsPerUnit accepted")
	}
	bad = mmProfile()
	bad.CPUEfficiency = 1.5
	if bad.Validate() == nil {
		t.Error("CPUEfficiency > 1 accepted")
	}
	bad = mmProfile()
	bad.MinEfficiencyFrac = -0.1
	if bad.Validate() == nil {
		t.Error("negative MinEfficiencyFrac accepted")
	}
	bad = mmProfile()
	bad.SaturationUnits = -1
	if bad.Validate() == nil {
		t.Error("negative SaturationUnits accepted")
	}
}

func TestPeakGFlops(t *testing.T) {
	// Xeon E5-2690v2: 10 × 3.0 × 16 = 480 GFLOP/s.
	if got := XeonE52690V2().PeakGFlops(); got != 480 {
		t.Errorf("Xeon peak = %g, want 480", got)
	}
	// Titan: 2688 × 0.837 × 2 ≈ 4499.7.
	if got := GTXTitan().PeakGFlops(); math.Abs(got-4499.7) > 0.5 {
		t.Errorf("Titan peak = %g, want ≈4500", got)
	}
}

func TestCatalogComplete(t *testing.T) {
	specs := TableISpecs()
	if len(specs) != 8 {
		t.Fatalf("TableISpecs returned %d entries, want 8", len(specs))
	}
	cpus, gpus := 0, 0
	for _, s := range specs {
		switch s.Kind {
		case CPU:
			cpus++
			if s.Cores <= 0 || s.ClockGHz <= 0 || s.CacheMB <= 0 {
				t.Errorf("%s: incomplete CPU spec", s.Name)
			}
		case GPU:
			gpus++
			if s.SMs <= 0 || s.MemBWGBs <= 0 {
				t.Errorf("%s: incomplete GPU spec", s.Name)
			}
		}
	}
	if cpus != 4 || gpus != 4 {
		t.Errorf("catalog has %d CPUs and %d GPUs, want 4+4", cpus, gpus)
	}
}

func TestGPUSaturationShape(t *testing.T) {
	gpu := New(TeslaK20c(), 1, 0)
	p := mmProfile()
	// Per-unit time must *decrease* with block size (throughput rises).
	small := gpu.NominalExecSeconds(p, 8) / 8
	mid := gpu.NominalExecSeconds(p, 150) / 150
	large := gpu.NominalExecSeconds(p, 15000) / 15000
	if !(small > mid && mid > large) {
		t.Errorf("per-unit times not decreasing: %g, %g, %g", small, mid, large)
	}
	// Small blocks run well below asymptotic efficiency.
	if ratio := small / large; ratio < 2 {
		t.Errorf("small-block penalty only %.2fx, want > 2x (Fig. 1 nonlinearity)", ratio)
	}
}

func TestCPUNearLinear(t *testing.T) {
	cpu := New(XeonE52690V2(), 1, 0)
	p := mmProfile()
	r1 := cpu.NominalExecSeconds(p, 10) / 10
	r2 := cpu.NominalExecSeconds(p, 1000) / 1000
	// Cache falloff allows mild super-linearity, bounded by CacheFalloff.
	if r2 < r1 {
		t.Errorf("CPU got faster per unit with size: %g → %g", r1, r2)
	}
	if r2/r1 > 1.5 {
		t.Errorf("CPU cache penalty too strong: %g", r2/r1)
	}
}

func TestGPUMuchFasterThanCPUAtScale(t *testing.T) {
	gpu := New(GTXTitan(), 1, 0)
	cpu := New(CoreI7920(), 1, 0)
	p := mmProfile()
	g := gpu.NominalExecSeconds(p, 10000)
	c := cpu.NominalExecSeconds(p, 10000)
	if ratio := c / g; ratio < 20 || ratio > 2000 {
		t.Errorf("CPU/GPU time ratio = %.1f, want within [20, 2000]", ratio)
	}
}

func TestNoiseDeterministicAndBounded(t *testing.T) {
	p := mmProfile()
	a := New(TeslaK20c(), 7, 0.015)
	b := New(TeslaK20c(), 7, 0.015)
	for i := 0; i < 5; i++ {
		if a.ExecSeconds(p, 100) != b.ExecSeconds(p, 100) {
			t.Fatal("same seed produced different jitter")
		}
	}
	nominal := a.NominalExecSeconds(p, 100)
	for i := 0; i < 100; i++ {
		s := a.ExecSeconds(p, 100)
		if s < nominal*0.9 || s > nominal*1.1 {
			t.Fatalf("jittered sample %g too far from nominal %g", s, nominal)
		}
	}
}

func TestZeroUnits(t *testing.T) {
	d := New(TeslaK20c(), 1, 0)
	if d.NominalExecSeconds(mmProfile(), 0) != 0 {
		t.Error("zero units should take zero time")
	}
}

func TestSpeedFactorAndFailure(t *testing.T) {
	d := New(TeslaK20c(), 1, 0)
	p := mmProfile()
	base := d.NominalExecSeconds(p, 100)
	d.SetSpeedFactor(0.5)
	// Launch overhead is fixed; the compute part doubles at half speed.
	want := d.LaunchOverhead + 2*(base-d.LaunchOverhead)
	if got := d.NominalExecSeconds(p, 100); math.Abs(got-want) > 1e-9*base {
		t.Errorf("half speed gave %g, want %g", got, want)
	}
	d.SetSpeedFactor(0)
	if !d.Failed() {
		t.Error("speed 0 should mark failure")
	}
	if !math.IsInf(d.NominalExecSeconds(p, 100), 1) {
		t.Error("failed device should take infinite time")
	}
	// Invalid factors clamp to failed instead of panicking or corrupting
	// the model: a fault schedule decoded from arbitrary bytes may compute
	// any float, and the worst legal interpretation is "device down".
	for _, bad := range []float64{-1, -0.001, math.Inf(-1), math.NaN()} {
		d.SetSpeedFactor(1)
		d.SetSpeedFactor(bad)
		if !d.Failed() {
			t.Errorf("SetSpeedFactor(%v) should clamp to failed", bad)
		}
		if got := d.SpeedFactor(); got != 0 {
			t.Errorf("SetSpeedFactor(%v) left factor %v, want 0", bad, got)
		}
	}
}

// TestFailureEpoch: the epoch moves once per alive → failed transition and
// on nothing else — repeated kills, recoveries and degradations leave it.
func TestFailureEpoch(t *testing.T) {
	d := New(TeslaK20c(), 1, 0)
	steps := []struct {
		factor float64
		moves  bool
	}{
		{0.5, false},
		{0, true},
		{0, false},
		{math.NaN(), false}, // clamps to 0: already failed
		{1, false},
		{-1, true}, // clamps to 0
		{math.Copysign(0, -1), false},
		{1, false},
		{math.Copysign(0, -1), true}, // -0 reads as failed
	}
	for i, st := range steps {
		before := FailureEpoch()
		d.SetSpeedFactor(st.factor)
		if moved := FailureEpoch() != before; moved != st.moves {
			t.Errorf("step %d: SetSpeedFactor(%v) moved the epoch = %v, want %v", i, st.factor, moved, st.moves)
		}
	}
}

func TestMemoryBoundKernel(t *testing.T) {
	// A kernel with huge memory traffic per unit must be bandwidth-limited.
	p := mmProfile()
	p.FlopsPerUnit = 1 // negligible compute
	p.BytesPerUnit = 1e9
	d := New(TeslaK20c(), 1, 0)
	got := d.NominalExecSeconds(p, 10)
	want := 10 * 1e9 / (205e9) // bytes / bandwidth
	if math.Abs(got-want-d.LaunchOverhead) > 1e-6 {
		t.Errorf("memory-bound time = %g, want ≈%g", got, want)
	}
}

// Property: execution time is monotone non-decreasing in block size and
// strictly positive for positive sizes, for every catalog device.
func TestExecMonotoneProperty(t *testing.T) {
	p := mmProfile()
	devices := TableISpecs()
	f := func(devIdx uint8, a, b uint16) bool {
		d := New(devices[int(devIdx)%len(devices)], 1, 0)
		x, y := float64(a)+1, float64(b)+1
		if x > y {
			x, y = y, x
		}
		tx, ty := d.NominalExecSeconds(p, x), d.NominalExecSeconds(p, y)
		return tx > 0 && ty >= tx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
