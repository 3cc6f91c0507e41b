package sched

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/device"
	"plbhec/internal/fault"
	"plbhec/internal/starpu"
	"plbhec/internal/stats"
)

// This file is the scheduler-invariant chaos harness: every scheduler is
// driven through seeded random fault schedules and checked against the
// properties that must hold under ANY fault pattern — exactly-once
// completion, no kernel execution inside a unit's dead window, makespan
// monotonicity in fault severity, and machine-permutation invariance.

// chaosSchedulers are the adaptive schedulers expected to survive faults.
func chaosSchedulers() map[string]func() starpu.Scheduler {
	return map[string]func() starpu.Scheduler{
		"greedy": func() starpu.Scheduler { return NewGreedy(Config{InitialBlockSize: 16}) },
		"hdss":   func() starpu.Scheduler { return NewHDSS(Config{InitialBlockSize: 16}) },
		"acosta": func() starpu.Scheduler { return NewAcosta(Config{InitialBlockSize: 16}) },
		"plbhec": func() starpu.Scheduler { return NewPLBHeC(Config{InitialBlockSize: 16}) },
	}
}

// deadWindow is an interval during which a unit is known unavailable.
type deadWindow struct {
	pu         int
	start, end float64
}

// deadWindows extracts the intervals each unit is provably down: device
// deaths are permanent, brown-outs span their duration. (Degrade and
// straggler severities are clamped above zero, so they never kill.)
func deadWindows(s fault.Schedule) []deadWindow {
	var ws []deadWindow
	for _, f := range s.Specs {
		switch f.Kind {
		case fault.DeviceDeath:
			ws = append(ws, deadWindow{pu: f.PU, start: f.At, end: math.Inf(1)})
		case fault.BrownOut:
			ws = append(ws, deadWindow{pu: f.PU, start: f.At, end: f.At + f.Duration})
		}
	}
	return ws
}

// checkChaosInvariants verifies the fault-independent properties of a
// completed run: well-formed records, exactly-once unit coverage, and no
// kernel execution overlapping a dead window.
func checkChaosInvariants(t *testing.T, label string, rep *starpu.Report, total int64, windows []deadWindow) {
	t.Helper()
	const eps = 1e-9
	covered := make([]int, total)
	for _, r := range rep.Records {
		if r.Lo < 0 || r.Hi > total || r.Lo >= r.Hi {
			t.Fatalf("%s: bad range [%d,%d)", label, r.Lo, r.Hi)
		}
		for i := r.Lo; i < r.Hi; i++ {
			covered[i]++
		}
		if !(r.SubmitTime <= r.TransferStart && r.TransferStart <= r.TransferEnd &&
			r.TransferEnd <= r.ExecStart && r.ExecStart <= r.ExecEnd) {
			t.Fatalf("%s: inconsistent times: %+v", label, r)
		}
		for _, w := range windows {
			if r.PU == w.pu && r.ExecEnd > w.start+eps && r.ExecStart < w.end-eps {
				t.Fatalf("%s: kernel on PU %d ran [%g,%g] inside dead window [%g,%g]",
					label, r.PU, r.ExecStart, r.ExecEnd, w.start, w.end)
			}
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("%s: unit %d processed %d times", label, i, c)
		}
	}
}

// TestChaosInvariants sweeps a fixed seed matrix of random fault schedules
// across every adaptive scheduler. A run may legitimately fail with
// ErrFailedDevice (the schedule can exhaust every unit); anything else —
// panic, stall, double completion, execution on a dead unit — is a bug.
func TestChaosInvariants(t *testing.T) {
	const (
		n       = 8192
		horizon = 8.0 // pilot makespans are ~4–10 s; faults land mid-run
	)
	for name, mk := range chaosSchedulers() {
		for _, seed := range []int64{1, 2, 3} {
			schedule := fault.Rand(stats.NewRNG(seed).Split(int64(len(name))), 4, 2, horizon, 4)
			label := name + "/seed" + string(rune('0'+seed))
			clu := cluster.TableI(cluster.Config{
				Machines: 2, Seed: seed, NoiseSigma: cluster.DefaultNoiseSigma,
			})
			app := apps.NewMatMul(apps.MatMulConfig{N: n})
			sess := starpu.NewSimSession(clu, app, starpu.SimConfig{
				Retry: true,
			})
			if err := schedule.Apply(sess, clu); err != nil {
				t.Fatalf("%s: apply: %v", label, err)
			}
			rep, err := sess.Run(mk())
			if err != nil {
				if !errors.Is(err, starpu.ErrFailedDevice) {
					t.Fatalf("%s: run failed with a non-fault error: %v", label, err)
				}
				continue // every unit died: nothing more to check
			}
			checkChaosInvariants(t, label, rep, n, deadWindows(schedule))
		}
	}
}

// TestChaosMakespanMonotonic: degrading a unit must never make the whole
// run faster than the fault-free baseline. The anchor is the severity-1 run
// rather than adjacent ladder levels because adaptive schedulers are not
// strictly monotone between degraded levels: at a harsh enough severity
// PLB-HeC sheds the unit entirely and can beat a milder level that kept
// trickling blocks to it. Noise-free cluster, one permanent Degrade on the
// remote GPU; a small tolerance absorbs block-boundary rounding.
func TestChaosMakespanMonotonic(t *testing.T) {
	for name, mk := range chaosSchedulers() {
		run := func(severity float64) float64 {
			clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
			app := apps.NewMatMul(apps.MatMulConfig{N: 8192})
			sess := starpu.NewSimSession(clu, app, starpu.SimConfig{
				Retry: true,
			})
			if severity < 1 {
				s := fault.Schedule{Name: "degrade", Specs: []fault.FaultSpec{
					{Kind: fault.Degrade, At: 1, PU: 3, Severity: severity},
				}}
				if err := s.Apply(sess, clu); err != nil {
					t.Fatal(err)
				}
			}
			rep, err := sess.Run(mk())
			if err != nil {
				t.Fatalf("%s severity %g: %v", name, severity, err)
			}
			return rep.Makespan
		}
		baseline := run(1)
		for _, sev := range []float64{0.7, 0.4, 0.1} {
			if m := run(sev); m < baseline*0.99 {
				t.Errorf("%s: makespan %g at severity %g beats the fault-free baseline %g",
					name, m, sev, baseline)
			}
		}
	}
}

// permutedCluster builds a 3-node cluster whose non-master machines appear
// in the given order, with every device seeded by machine identity — so a
// permutation relabels machines without changing any device's behavior.
// (cluster.TableI seeds by machine INDEX, which would change the noise
// streams under permutation; this constructor keeps them identity-tied.)
func permutedCluster(order [2]int) *cluster.Cluster {
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

// unitsByIdentity runs PLB-HeC on the cluster and returns total units
// processed per machine/device identity.
func unitsByIdentity(t *testing.T, clu *cluster.Cluster) map[string]int64 {
	t.Helper()
	app := apps.NewMatMul(apps.MatMulConfig{N: 8192})
	rep, err := starpu.NewSimSession(clu, app, starpu.SimConfig{}).
		Run(NewPLBHeC(Config{InitialBlockSize: 16}))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, r := range rep.Records {
		out[clu.PUs()[r.PU].Name()] += r.Units
	}
	return out
}

// TestChaosMachinePermutationInvariance: relabeling the non-master machines
// must not change PLB-HeC's block distribution — each identity processes
// the same number of units regardless of its position in the PU list.
func TestChaosMachinePermutationInvariance(t *testing.T) {
	a := unitsByIdentity(t, permutedCluster([2]int{0, 1}))
	b := unitsByIdentity(t, permutedCluster([2]int{1, 0}))
	if len(a) != len(b) {
		t.Fatalf("identity sets differ: %v vs %v", a, b)
	}
	for id, ua := range a {
		if ub, ok := b[id]; !ok || ub != ua {
			t.Errorf("identity %q: %d units vs %d after permutation", id, ua, ub)
		}
	}
}

// TestChaosPermanentPartitionTerminates: a unit cut off for good under a
// HealthPolicy must not wedge the run. A scheduler may assign a block to
// the unit after the detector already suspects it; that block's copy is
// abandoned behind the partition and must move to a survivor at once,
// because the detector never fires twice for the same suspicion. Each run
// gets a wall-clock guard: the bug this pins made simulated time grow
// without bound, with only heartbeat timers firing.
func TestChaosPermanentPartitionTerminates(t *testing.T) {
	const n = 8192
	for name, mk := range chaosSchedulers() {
		for _, at := range []float64{0, 0.05, 0.1, 0.2} {
			label := fmt.Sprintf("%s/partition@%g", name, at)
			clu := cluster.TableI(cluster.Config{
				Machines: 2, Seed: 9500, NoiseSigma: cluster.DefaultNoiseSigma,
			})
			app := apps.NewMatMul(apps.MatMulConfig{N: n})
			sess := starpu.NewSimSession(clu, app, starpu.SimConfig{
				Retry: true,
				Health: &starpu.HealthPolicy{
					HeartbeatSeconds: 0.02, Detector: "phi", PhiThreshold: 8,
				},
			})
			s := fault.Schedule{Name: "permanent-partition", Specs: []fault.FaultSpec{
				{Kind: fault.Partition, At: at, PU: 3},
			}}
			if err := s.Apply(sess, clu); err != nil {
				t.Fatalf("%s: apply: %v", label, err)
			}
			type outcome struct {
				rep *starpu.Report
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				rep, err := sess.Run(mk())
				done <- outcome{rep, err}
			}()
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatalf("%s: %v", label, o.err)
				}
				checkChaosInvariants(t, label, o.rep, n, nil)
			case <-time.After(30 * time.Second):
				t.Fatalf("%s: run still going after 30 s of wall time", label)
			}
		}
	}
}
