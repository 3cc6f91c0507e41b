// Package device models the processing units of the paper's testbed
// (Table I): four CPUs and four GPUs with heterogeneous microarchitectures.
//
// A Device turns (kernel profile, block size) into execution seconds. The
// model reproduces the time signatures that drive every load-balancing
// decision in the paper:
//
//   - GPUs have a fixed kernel-launch overhead and a throughput that
//     *saturates* with block size: small blocks cannot fill the streaming
//     multiprocessors, so effective FLOP/s ramps up roughly hyperbolically
//     with the amount of exposed parallelism (this is the curve HDSS fits a
//     logarithm to, and the reason a single-number weight misallocates).
//   - CPUs are close to linear in block size, with a mild cache penalty for
//     very large working sets.
//   - Memory-bound kernels (Black-Scholes) are limited by memory bandwidth
//     rather than FLOP/s (roofline max of compute and memory time).
//   - Every measured execution carries a small multiplicative lognormal
//     jitter, seeded deterministically, standing in for real measurement
//     noise.
package device

import (
	"fmt"
	"math"
	"sync/atomic"

	"plbhec/internal/stats"
)

// Kind discriminates processor types.
type Kind int

const (
	// CPU is a multicore host processor.
	CPU Kind = iota
	// GPU is a discrete accelerator.
	GPU
)

// String returns "CPU" or "GPU".
func (k Kind) String() string {
	if k == CPU {
		return "CPU"
	}
	return "GPU"
}

// KernelProfile describes how one application kernel consumes a device, per
// work unit (a matrix row, a gene, an option...). It is the only interface
// between applications and device models.
type KernelProfile struct {
	Name string

	// FlopsPerUnit is the floating-point work per unit.
	FlopsPerUnit float64
	// BytesPerUnit is the device-memory traffic per unit (roofline term).
	BytesPerUnit float64
	// TransferBytesPerUnit is the input data that must be shipped to the
	// device per unit (drives G_p[x]). Shared inputs (MM's matrix A, GRN's
	// expression matrix) are NOT broadcast whole: at the paper's sizes they
	// exceed several devices' memory (17 GB for A at 65536², vs the GTX
	// 295's 896 MB), so a real implementation streams the needed tiles per
	// block — which this per-unit figure charges.
	TransferBytesPerUnit float64
	// SaturationUnits is the block size (in work units) at which a
	// reference 14-SM GPU reaches half of its asymptotic efficiency on
	// this kernel. GPU kernels process blocks in fixed-shape tiles spread
	// across streaming multiprocessors, so small blocks leave most SMs
	// idle or under-occupied: effective FLOP/s ramps up with block size
	// and saturates — the nonlinear curves of the paper's Fig. 1, and the
	// reason fixed-size-block schedulers underuse big GPUs. Devices scale
	// this by their SM count.
	SaturationUnits float64
	// MinEfficiencyFrac is the fraction of the asymptotic efficiency a
	// GPU still reaches on a tiny block (launch-bound/memory-bound floor).
	MinEfficiencyFrac float64
	// CPUEfficiency and GPUEfficiency scale the theoretical peak FLOP/s to
	// the fraction this kernel actually achieves on each architecture
	// (GPUEfficiency is the asymptotic, large-block value).
	CPUEfficiency float64
	GPUEfficiency float64
}

// Validate reports whether the profile is usable.
func (p KernelProfile) Validate() error {
	switch {
	case p.FlopsPerUnit <= 0:
		return fmt.Errorf("device: profile %q: FlopsPerUnit must be > 0", p.Name)
	case p.SaturationUnits < 0:
		return fmt.Errorf("device: profile %q: SaturationUnits must be >= 0", p.Name)
	case p.MinEfficiencyFrac < 0 || p.MinEfficiencyFrac > 1:
		return fmt.Errorf("device: profile %q: MinEfficiencyFrac out of [0,1]", p.Name)
	case p.CPUEfficiency <= 0 || p.CPUEfficiency > 1:
		return fmt.Errorf("device: profile %q: CPUEfficiency out of (0,1]", p.Name)
	case p.GPUEfficiency <= 0 || p.GPUEfficiency > 1:
		return fmt.Errorf("device: profile %q: GPUEfficiency out of (0,1]", p.Name)
	}
	return nil
}

// Spec is the static description of a processor.
type Spec struct {
	Name     string
	Kind     Kind
	Cores    int     // physical cores (CPU) or CUDA cores (GPU)
	ClockGHz float64 // shader clock for GPUs
	SMs      int     // streaming multiprocessors (GPUs only)
	// FlopsPerCycle is per-core single-precision FLOPs per clock
	// (SIMD width × FMA for CPUs, 2 for GPU CUDA cores).
	FlopsPerCycle float64
	MemBWGBs      float64 // device memory bandwidth, GB/s
	MemGB         float64 // device memory capacity
	CacheMB       float64 // last-level cache (CPUs)

	// LaunchOverhead is the fixed per-task cost in seconds (kernel launch +
	// driver for GPUs, thread-pool dispatch for CPUs).
	LaunchOverhead float64
	// CacheFalloff is the relative CPU slowdown once a block's working set
	// exceeds last-level cache (0 disables the effect).
	CacheFalloff float64
}

// PeakGFlops returns the theoretical single-precision peak in GFLOP/s.
func (s Spec) PeakGFlops() float64 {
	return float64(s.Cores) * s.ClockGHz * s.FlopsPerCycle
}

// Device is an instantiated processor with a noise stream and a dynamic
// speed factor (for QoS-degradation and fault scenarios).
type Device struct {
	Spec
	rng *stats.RNG
	// speedFactor scales throughput; 1 is nominal, 0.5 means half speed,
	// 0 marks a failed device. Stored as IEEE-754 bits so fault injectors
	// running on other goroutines (the live engine has no serialized clock)
	// can flip it mid-run without a data race.
	speedFactor atomic.Uint64
	noiseSigma  float64
}

// New instantiates spec with a deterministic noise stream derived from seed.
// noiseSigma is the lognormal sigma applied to every execution time sample
// (0 disables noise).
func New(spec Spec, seed int64, noiseSigma float64) *Device {
	d := &Device{
		Spec:       spec,
		rng:        stats.NewRNG(seed),
		noiseSigma: noiseSigma,
	}
	d.speedFactor.Store(math.Float64bits(1))
	return d
}

// failureEpoch counts alive → failed transitions across every device in the
// process; see FailureEpoch.
var failureEpoch atomic.Uint64

// FailureEpoch returns the number of alive → failed transitions
// SetSpeedFactor has made on any device in the process. An observer that
// reads the epoch, then scans Failed() over its devices, and scans again
// only once the epoch has moved never misses a failure, whichever goroutine
// or code path set the factor. Recoveries do not move it. The counter is
// shared by every device, so a failure elsewhere in the process costs an
// observer one scan that finds nothing.
func FailureEpoch() uint64 { return failureEpoch.Load() }

// SetSpeedFactor changes the device's throughput multiplier. Factor 0 marks
// the device as failed. Negative and NaN factors clamp to 0: fault schedules
// are decoded from arbitrary inputs (fuzzing, severity arithmetic), and an
// invalid factor must degrade to the worst legal state — failed — rather
// than drive time backwards or poison the event heap with NaN. Safe to call
// from any goroutine.
//
// When the call moves the device from alive to failed, it advances
// FailureEpoch exactly once, after the new factor is visible to Failed():
// an observer that reads the old epoch and then misses the failure in its
// scan sees the epoch move on its next read.
func (d *Device) SetSpeedFactor(f float64) {
	if f < 0 || math.IsNaN(f) {
		f = 0
	}
	old := math.Float64frombits(d.speedFactor.Swap(math.Float64bits(f)))
	if f == 0 && old != 0 {
		failureEpoch.Add(1)
	}
}

// SpeedFactor returns the current throughput multiplier.
func (d *Device) SpeedFactor() float64 { return math.Float64frombits(d.speedFactor.Load()) }

// Failed reports whether the device is marked failed (speed factor 0).
func (d *Device) Failed() bool { return d.SpeedFactor() == 0 }

// NominalExecSeconds returns the noise-free time to execute a block of
// units work units of kernel p. It is the ground-truth curve F_p[x] that the
// schedulers try to learn. Returns +Inf for failed devices.
func (d *Device) NominalExecSeconds(p KernelProfile, units float64) float64 {
	if units <= 0 {
		return 0
	}
	sf := d.SpeedFactor()
	if sf == 0 {
		return math.Inf(1)
	}
	peak := d.PeakGFlops() * 1e9 * sf
	var eff float64
	switch d.Kind {
	case GPU:
		eff = p.GPUEfficiency * d.occupancy(p, units)
	default:
		eff = p.CPUEfficiency / (1 + d.cachePenalty(p, units))
	}
	compute := units * p.FlopsPerUnit / (peak * eff)
	mem := 0.0
	if d.MemBWGBs > 0 && p.BytesPerUnit > 0 {
		mem = units * p.BytesPerUnit / (d.MemBWGBs * 1e9 * sf)
	}
	t := compute
	if mem > t {
		t = mem
	}
	return d.LaunchOverhead + t
}

// ExecSeconds returns a jittered sample of the execution time, as a real
// measurement would observe it.
func (d *Device) ExecSeconds(p KernelProfile, units float64) float64 {
	t := d.NominalExecSeconds(p, units)
	if math.IsInf(t, 1) || units <= 0 {
		return t
	}
	return t * d.rng.LogNormalFactor(d.noiseSigma)
}

// occupancy returns the fraction of the kernel's asymptotic GPU efficiency
// a block of the given size reaches:
//
//	occ(x) = (f·H + x) / (H + x),  H = SaturationUnits · SMs/14
//
// where f is the small-block efficiency floor. occ rises from f at x→0
// toward 1, with half the gap closed at x = H; GPUs with more streaming
// multiprocessors need proportionally larger blocks to fill. This is the
// saturating FLOP/s-vs-block-size behaviour of the paper's Fig. 1.
func (d *Device) occupancy(p KernelProfile, units float64) float64 {
	sms := float64(d.SMs)
	if sms <= 0 {
		sms = 14
	}
	h := p.SaturationUnits * sms / 14
	if h <= 0 {
		return 1
	}
	f := p.MinEfficiencyFrac
	return (f*h + units) / (h + units)
}

// cachePenalty returns the relative slowdown of a CPU block whose working
// set exceeds the last-level cache.
func (d *Device) cachePenalty(p KernelProfile, units float64) float64 {
	if d.CacheFalloff <= 0 || d.CacheMB <= 0 {
		return 0
	}
	ws := units * p.BytesPerUnit / (d.CacheMB * 1e6)
	if ws <= 1 {
		return 0
	}
	// Saturating penalty: once far out of cache the slowdown plateaus.
	return d.CacheFalloff * (1 - 1/ws)
}

// String identifies the device.
func (d *Device) String() string { return fmt.Sprintf("%s(%s)", d.Name, d.Kind) }
