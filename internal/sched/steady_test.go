package sched

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/starpu"
)

// This file covers PLB-HeC's steady execution-phase completion: the
// incremental imbalance detector and round total against the linear scans
// they replaced, and the cost of one completion at 8, 1,024 and 10,000
// units.

// imbalancedLinear is the per-completion scan the incremental detector
// replaced, kept as its oracle: unit pu's duration against every other unit
// that has measured a full block and still receives blocks.
func imbalancedLinear(p *PLBHeC, pu int, dur, thr float64) bool {
	for j, d := range p.lastDur {
		if j == pu || d == 0 || p.blockUnits[j] < 0.5 {
			continue
		}
		if math.Abs(dur-d) > thr {
			return true
		}
	}
	return false
}

// roundTotalLinear is the per-completion re-sum roundTotal replaced.
func roundTotalLinear(p *PLBHeC) float64 {
	var sum float64
	for _, b := range p.blockUnits {
		sum += b
	}
	return sum
}

// newDetectorState returns a scheduler holding the per-unit state imbalance
// detection reads, allocated as Start allocates it, with no session.
func newDetectorState(n int) *PLBHeC {
	p := NewPLBHeC(Config{})
	p.lastDur = make([]float64, n)
	p.durs = newDurRange(n)
	p.share = make([]float64, n)
	p.blockUnits = make([]float64, n)
	p.dead = make([]bool, n)
	p.thrScale = 1
	return p
}

// TestImbalanceDetectorMatchesLinearScan drives the incremental detector
// and the linear scan through the same random sequences of completions,
// redistributions (bulk resets, some blocks below 0.5 units), deaths and
// threshold widenings, and requires the same decision at every completion
// and a bit-identical round total after every step. Durations are drawn
// from a small grid, so equal values and exact threshold boundaries occur,
// plus zero, -0, NaN, ±Inf and negative values.
func TestImbalanceDetectorMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -1}
	pick := func() float64 {
		if rng.Intn(8) == 0 {
			return special[rng.Intn(len(special))]
		}
		return 1 + 0.05*float64(rng.Intn(8))
	}
	var decisions [2]int
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(48)
		p := newDetectorState(n)
		redistribute := func() {
			for i := range p.share {
				switch {
				case p.dead[i] || rng.Intn(4) == 0:
					p.share[i] = 0
				default:
					// remaining/steps = 25 units per unit share: shares
					// below 0.02 give blocks below 0.5 units.
					p.share[i] = 0.04 * rng.Float64()
				}
			}
			p.setBlocks(100, 4)
		}
		redistribute()
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(40); {
			case r == 0:
				redistribute()
			case r == 1:
				if i := rng.Intn(n); !p.dead[i] {
					p.markDead(i)
				}
			case r == 2:
				p.thrScale *= 2
			default:
				i := rng.Intn(n)
				dur := pick()
				p.lastDur[i] = dur
				p.trackDur(i)
				thr := p.Threshold * p.thrScale * pick()
				got, want := p.imbalanced(i, dur, thr), imbalancedLinear(p, i, dur, thr)
				if got != want {
					t.Fatalf("trial %d step %d: unit %d dur %v thr %v: imbalanced = %v, linear scan = %v (lastDur %v, blockUnits %v)",
						trial, step, i, dur, thr, got, want, p.lastDur, p.blockUnits)
				}
				if got {
					decisions[1]++
				} else {
					decisions[0]++
				}
			}
			if got, want := p.roundTotal, roundTotalLinear(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: roundTotal = %v, re-sum = %v", trial, step, got, want)
			}
		}
	}
	if decisions[0] < 1000 || decisions[1] < 1000 {
		t.Errorf("decisions (balanced, imbalanced) = %v: the sequences exercise one side too little", decisions)
	}
}

// steadyHarness holds a PLB-HeC scheduler in its execution phase on an
// n-unit noise-free cluster. Every unit has measured a full block of the
// same duration, so each completion runs every per-completion check — the
// failure poll, the tail check, imbalance detection — and none triggers a
// rebalance; the scheduler then re-requests the unit's block. complete
// delivers the units' completions round robin. The re-requested blocks
// never run, so each round of n completions gets a fresh session: the
// engine pools n completion payloads. A fresh session's first block over
// each link allocates that link's entry in the session's link map, which
// shows as a few B/op and no allocs/op.
type steadyHarness struct {
	p    *PLBHeC
	clu  *cluster.Cluster
	app  *apps.App
	s    *starpu.Session
	recs []starpu.TaskRecord
	// base is each unit's sample count before its first completion; reset
	// truncates the samples back to it, into capacity that already held one
	// more, so a round appends without allocating.
	base []int
	next int
}

func newSteadyHarness(tb testing.TB, n int) *steadyHarness {
	tb.Helper()
	h := &steadyHarness{
		clu: cluster.Synthetic(n/4, 3, cluster.Config{Seed: 1}),
		app: apps.NewMatMul(apps.MatMulConfig{N: 16 << 20}),
	}
	if got := len(h.clu.PUs()); got != n {
		tb.Fatalf("cluster has %d units, want %d", got, n)
	}
	s := starpu.NewSimSession(h.clu, h.app, starpu.SimConfig{})
	p := NewPLBHeC(Config{InitialBlockSize: 16})
	p.Start(s)
	prof := s.Profile()
	for i, pu := range s.PUs() {
		for _, x := range []float64{16, 64, 256, 1024} {
			p.sampler.Add(i, x, pu.Dev.NominalExecSeconds(prof, x), 1e-6*x)
		}
	}
	ms, err := p.sampler.FitAll(float64(s.Remaining()))
	if err != nil {
		tb.Fatal(err)
	}
	p.models, p.modelsOK = ms, true
	p.phase = phaseExecuting
	p.evenShareAlive()
	p.submitBlocks(s)
	for i, b := range p.blockUnits {
		h.recs = append(h.recs, starpu.TaskRecord{PU: i, Units: int64(math.Round(b)), ExecEnd: 1})
		h.base = append(h.base, p.sampler.Count(i))
	}
	for _, rec := range h.recs {
		p.TaskFinished(s, rec)
	}
	if p.phase != phaseExecuting || p.rebalance {
		tb.Fatal("the harness left the steady execution phase")
	}
	h.p = p
	h.reset()
	return h
}

// reset starts a round: a fresh session and the samples truncated back.
func (h *steadyHarness) reset() {
	h.s = starpu.NewSimSession(h.clu, h.app, starpu.SimConfig{})
	for i, n := range h.base {
		h.p.sampler.Exec[i] = h.p.sampler.Exec[i][:n]
		h.p.sampler.Trans[i] = h.p.sampler.Trans[i][:n]
	}
	h.next = 0
}

// complete delivers the next unit's completion. At most len(recs) calls
// fit in one round.
func (h *steadyHarness) complete() {
	h.p.TaskFinished(h.s, h.recs[h.next])
	h.next++
}

// BenchmarkPLBHeCTaskFinished measures one steady execution-phase
// completion (TaskFinished, including the block it re-requests) at 8,
// 1,024 and 10,000 units.
func BenchmarkPLBHeCTaskFinished(b *testing.B) {
	for _, n := range []int{8, 1024, 10000} {
		var h *steadyHarness
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			if h == nil {
				h = newSteadyHarness(b, n)
			}
			h.reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if h.next == n {
					b.StopTimer()
					h.reset()
					b.StartTimer()
				}
				h.complete()
			}
			b.StopTimer()
			if h.p.phase != phaseExecuting || h.p.rebalance {
				b.Fatal("a steady completion left the execution phase")
			}
		})
	}
}

// TestPLBHeCSteadyZeroAlloc guards the steady completion path (CI
// ZeroAlloc|ConstantAlloc gate): at 1,024 units, a completion that
// re-requests its unit's block allocates nothing.
func TestPLBHeCSteadyZeroAlloc(t *testing.T) {
	h := newSteadyHarness(t, 1024)
	// AllocsPerRun calls complete 1,001 times: within one round.
	if allocs := testing.AllocsPerRun(1000, h.complete); allocs != 0 {
		t.Errorf("steady completion allocates %v objects, want 0", allocs)
	}
	if h.p.phase != phaseExecuting || h.p.rebalance {
		t.Fatal("a steady completion left the execution phase")
	}
}

// TestSolveCurvesZeroAlloc guards the rebalance solve (CI
// ZeroAlloc|ConstantAlloc gate): at 1,024 units a warm solveDistribution
// rebuilds its curve slice in place from pointers into the models, so it
// allocates nothing.
func TestSolveCurvesZeroAlloc(t *testing.T) {
	h := newSteadyHarness(t, 1024)
	h.p.solveDistribution(h.s)
	if allocs := testing.AllocsPerRun(20, func() { h.p.solveDistribution(h.s) }); allocs != 0 {
		t.Errorf("warm solveDistribution allocates %v objects, want 0", allocs)
	}
}
