package sched

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/fault"
	"plbhec/internal/fit"
	"plbhec/internal/ipm"
	"plbhec/internal/profile"
	"plbhec/internal/starpu"
)

// TestSchedulerInvariantsFuzz drives every scheduler through randomized
// scenarios — machine counts, applications, sizes, block sizes, noise and
// seeds — and checks the universal invariants: every unit of work is
// processed exactly once, records are well-formed, per-unit executions
// never overlap, and the recorded distributions are normalized.
func TestSchedulerInvariantsFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz-style sweep")
	}
	mks := []func(blk float64) starpu.Scheduler{
		func(blk float64) starpu.Scheduler { return NewGreedy(Config{InitialBlockSize: blk}) },
		func(blk float64) starpu.Scheduler { return NewAcosta(Config{InitialBlockSize: blk}) },
		func(blk float64) starpu.Scheduler { return NewHDSS(Config{InitialBlockSize: blk}) },
		func(blk float64) starpu.Scheduler { return NewPLBHeC(Config{InitialBlockSize: blk}) },
		func(blk float64) starpu.Scheduler { return NewStatic() },
		func(blk float64) starpu.Scheduler { return NewWeightedFactoring(Config{InitialBlockSize: blk}, nil) },
		func(blk float64) starpu.Scheduler { return NewStaticProfile(nil) },
	}

	f := func(schedIdx, machines8, appIdx, sizeExp, blkExp, noise8 uint8, seed int64) bool {
		mk := mks[int(schedIdx)%len(mks)]
		machines := 1 + int(machines8)%4
		size := int64(64) << (sizeExp % 7) // 64 … 4096 units
		blk := float64(int64(1) << (blkExp % 6))
		noise := float64(noise8%4) * 0.01

		var app *apps.App
		switch appIdx % 3 {
		case 0:
			app = apps.NewMatMul(apps.MatMulConfig{N: size})
		case 1:
			app = apps.NewGRN(apps.GRNConfig{Genes: size, Samples: 16})
		default:
			app = apps.NewBlackScholes(apps.BlackScholesConfig{Options: size, Paths: 512, Steps: 32})
		}

		clu := cluster.TableI(cluster.Config{Machines: machines, Seed: seed, NoiseSigma: noise})
		rep, err := starpu.NewSimSession(clu, app, starpu.SimConfig{}).Run(mk(blk))
		if err != nil {
			t.Logf("run error: %v", err)
			return false
		}

		// Work conservation and range disjointness.
		covered := make([]bool, size)
		for _, r := range rep.Records {
			if r.Lo < 0 || r.Hi > size || r.Lo >= r.Hi {
				t.Logf("bad range [%d,%d)", r.Lo, r.Hi)
				return false
			}
			for i := r.Lo; i < r.Hi; i++ {
				if covered[i] {
					t.Logf("unit %d processed twice", i)
					return false
				}
				covered[i] = true
			}
			if !(r.SubmitTime <= r.TransferStart && r.TransferStart <= r.TransferEnd &&
				r.TransferEnd <= r.ExecStart && r.ExecStart <= r.ExecEnd) {
				t.Logf("inconsistent times: %+v", r)
				return false
			}
		}
		for i, c := range covered {
			if !c {
				t.Logf("unit %d never processed", i)
				return false
			}
		}
		// Per-PU executions sequential.
		lastEnd := map[int]float64{}
		for _, r := range rep.Records {
			if r.ExecStart < lastEnd[r.PU]-1e-12 {
				t.Logf("overlap on PU %d", r.PU)
				return false
			}
			if r.ExecEnd > lastEnd[r.PU] {
				lastEnd[r.PU] = r.ExecEnd
			}
		}
		// Distribution normalization.
		for _, d := range rep.Distributions {
			var sum float64
			for _, x := range d.X {
				if x < -1e-12 {
					t.Logf("negative share %g", x)
					return false
				}
				sum += x
			}
			if sum > 1.000001 || (sum != 0 && sum < 0.999999) {
				t.Logf("distribution sums to %g", sum)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// FuzzFaultSchedule feeds arbitrary bytes through fault.FromBytes into a
// full simulated run: byte 0 picks the scheduler, the rest decode into a
// fault schedule that is valid by construction. The runtime must never
// panic, deadlock, or complete a unit twice — a run ending in a clean error
// (every unit dead, retries exhausted, scheduler stalled) is tolerated, but
// even then the partial record stream must stay at-most-once.
func FuzzFaultSchedule(f *testing.F) {
	// Corpus: each of the four schedulers, with fault bytes touching every
	// kind (byte 1 of each 7-byte group selects the Kind modulo 8). Byte 0
	// values >= 128 run with a HealthPolicy attached, so the detector,
	// lease-fencing, and rejoin paths face arbitrary schedules too.
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 1, 10, 100, 20, 5, 0})
	f.Add([]byte{2, 1, 2, 64, 200, 40, 0, 1, 4, 3, 128, 10, 80, 30, 1})
	f.Add([]byte{3, 2, 0, 32, 255, 255, 255, 0, 5, 1, 16, 3, 3, 3, 1})
	f.Add([]byte{0, 3, 3, 5, 5, 5, 5, 5, 1, 0, 200, 128, 64, 32, 0})
	// Partition (kind 6) and heartbeat loss (kind 7), without a detector:
	// completions held at a partition boundary must still land exactly once.
	f.Add([]byte{3, 6, 1, 80, 100, 40, 0, 0})
	f.Add([]byte{0, 7, 2, 60, 120, 50, 10, 1})
	// The same stimuli against the phi-accrual detector: false suspicions,
	// fenced late completions, and rejoins under arbitrary composition.
	f.Add([]byte{131, 6, 1, 80, 100, 40, 0, 0})
	f.Add([]byte{128, 7, 2, 60, 120, 50, 10, 1})
	f.Add([]byte{130, 6, 3, 40, 90, 30, 0, 0, 0, 0, 128, 255, 0, 0, 0, 7, 1, 70, 64, 64, 0, 1})
	mks := []func() starpu.Scheduler{
		func() starpu.Scheduler { return NewGreedy(Config{InitialBlockSize: 16}) },
		func() starpu.Scheduler { return NewHDSS(Config{InitialBlockSize: 16}) },
		func() starpu.Scheduler { return NewAcosta(Config{InitialBlockSize: 16}) },
		func() starpu.Scheduler { return NewPLBHeC(Config{InitialBlockSize: 16}) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const n = 4096
		mk := mks[int(data[0])%len(mks)]
		var health *starpu.HealthPolicy
		if data[0] >= 128 {
			health = starpu.DefaultHealthPolicy()
		}
		schedule := fault.FromBytes(data[1:], 4, 2, 0.5)
		clu := cluster.TableI(cluster.Config{
			Machines: 2, Seed: 1, NoiseSigma: cluster.DefaultNoiseSigma,
		})
		app := apps.NewMatMul(apps.MatMulConfig{N: n})
		sess := starpu.NewSimSession(clu, app, starpu.SimConfig{
			Retry:  true,
			Health: health,
		})
		if err := schedule.Apply(sess, clu); err != nil {
			t.Fatalf("decoded schedule rejected: %v\nschedule: %v", err, schedule)
		}
		rep, err := sess.Run(mk())
		recs := sess.Records()
		if rep != nil {
			recs = rep.Records
		}
		covered := make([]int, n)
		for _, r := range recs {
			if r.Lo < 0 || r.Hi > n || r.Lo >= r.Hi {
				t.Fatalf("bad range [%d,%d)", r.Lo, r.Hi)
			}
			for i := r.Lo; i < r.Hi; i++ {
				if covered[i]++; covered[i] > 1 {
					t.Fatalf("unit %d completed twice (run err: %v)", i, err)
				}
			}
		}
		if err != nil {
			return // a clean failure is acceptable under arbitrary faults
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("unit %d processed %d times", i, c)
			}
		}
	})
}

// FuzzSolverInputs feeds arbitrary bytes — reinterpreted as raw IEEE-754
// profile samples, so NaN, ±Inf and subnormals all occur naturally — through
// the curve-fitting and block-size-solving pipeline. The contract under
// fuzzing: fitting either classifies the corruption (fit.ErrNonFinite and
// friends) or produces a model; the solver either returns a typed error or
// a valid distribution — finite, non-negative block sizes summing to the
// total. It must never emit NaN into a distribution.
func FuzzSolverInputs(f *testing.F) {
	f.Add([]byte{2})
	f.Add(binary.LittleEndian.AppendUint64([]byte{3}, math.Float64bits(math.NaN())))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64([]byte{2}, math.Float64bits(1.5)),
		math.Float64bits(math.Inf(1))))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nCurves := 2 + int(data[0])%3
		vals := make([]float64, 0, len(data)/8)
		for b := data[1:]; len(b) >= 8; b = b[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		next := func(i int, def float64) float64 {
			if i < len(vals) {
				return vals[i]
			}
			return def
		}
		var curves []ipm.Curve
		const perCurve = 4
		for c := 0; c < nCurves; c++ {
			xs := make([]float64, perCurve)
			ys := make([]float64, perCurve)
			for i := 0; i < perCurve; i++ {
				// Block sizes grow geometrically like real probe rounds;
				// fuzz bytes perturb both coordinates (possibly to NaN/Inf).
				base := float64(int64(16) << uint(i))
				xs[i] = base + next(c*2*perCurve+i, 0)
				ys[i] = base*1e-4 + next(c*2*perCurve+perCurve+i, 0)
			}
			m, err := fit.FitSamples(xs, ys)
			if err != nil {
				// Corruption classified at the fitting boundary.
				if !(errors.Is(err, fit.ErrNonFinite) || errors.Is(err, fit.ErrDegenerate) ||
					errors.Is(err, fit.ErrTooFewPoints)) {
					t.Fatalf("unclassified fit error: %v", err)
				}
				return
			}
			curves = append(curves, &m)
		}
		total := 1024.0
		if len(vals) > 0 {
			total = vals[len(vals)-1]
		}
		check := func(tag string, res ipm.Result, err error) {
			if err != nil {
				return // typed failure is the acceptable outcome for garbage
			}
			var sum float64
			for _, x := range res.X {
				if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
					t.Fatalf("%s solve emitted invalid block size %g (total %g)", tag, x, total)
				}
				sum += x
			}
			if math.IsNaN(res.Tau) || math.IsInf(res.Tau, 0) {
				t.Fatalf("%s solve emitted non-finite makespan %g", tag, res.Tau)
			}
			if math.Abs(sum-total) > 1e-6*math.Max(1, math.Abs(total)) {
				t.Fatalf("%s distribution sums to %g, want %g", tag, sum, total)
			}
		}
		// The second pass reuses the first one's workspaces.
		sv := ipm.NewSolver(ipm.Options{})
		for _, tag := range []string{"first", "reused"} {
			res, err := sv.Solve(ipm.Problem{Curves: curves, Total: total})
			check(tag, res, err)
		}
	})
}

// FuzzFitLiveSolve feeds production-shaped profiles through the scheduler's
// model pipeline: profile.Sampler.FitLive over the live units, dead units
// replaced by deadCurve, then one ipm.Solver.Solve over the remaining
// total. The contract: FitLive either returns a classified error, or the
// solve succeeds with finite, non-negative block sizes that give dead units
// nothing and sum to the total. A failed solve is therefore unreachable
// from a validated model set, which is why PLBHeC handles one with a plain
// even split.
//
// The contract holds inside the envelope the engines produce, and the
// decoder keeps every input inside it: 1–4 units with at least one alive,
// 2–6 samples per unit, integer block sizes in [1, total] with total ≤ 2³⁰,
// and execution and transfer seconds log-uniform in [1e-9, 1e7] (transfer
// seconds may also be exactly 0, as on the live engine). Raw IEEE-754
// seconds far outside it (about 1e270 s) do break it — R² turns NaN and the
// solve fails — and FuzzSolverInputs covers that garbage separately.
func FuzzFitLiveSolve(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{3, 0b0101, 0, 16, 0, 0, 4, 1, 0, 128, 0, 2, 0, 140, 0, 3, 0, 150, 0, 9})
	f.Add([]byte{2, 0, 255, 255, 255, 255, 5, 200, 40, 30, 7, 100, 1, 50, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 { // one byte per call; zeros once exhausted
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return uint64(b)
		}
		next16 := func() uint64 { return next()<<8 | next() }
		seconds := func() float64 { // log-uniform in [1e-9, 1e7]
			return math.Pow(10, -9+16*float64(next16())/math.MaxUint16)
		}

		n := 1 + int(next()%4)
		mask := next()
		dead := make([]bool, n)
		alive := 0
		for pu := range dead {
			dead[pu] = mask>>pu&1 == 1
			if !dead[pu] {
				alive++
			}
		}
		if alive == 0 {
			dead[0] = false
		}
		total := 1 + (next16()<<16|next16())%(1<<30)

		smp := profile.NewSampler(n)
		for pu := 0; pu < n; pu++ {
			for k := 2 + int(next()%5); k > 0; k-- {
				units := float64(1 + (next16()<<16|next16())%total)
				trans := 0.0
				if next()&1 == 1 {
					trans = seconds()
				}
				smp.Add(pu, units, seconds(), trans)
			}
		}

		ms, err := smp.FitLive(float64(total), dead)
		if err != nil {
			if !errors.Is(err, profile.ErrNeedSamples) && !errors.Is(err, fit.ErrNonFinite) &&
				!errors.Is(err, fit.ErrDegenerate) && !errors.Is(err, fit.ErrTooFewPoints) {
				t.Fatalf("unclassified FitLive error: %v", err)
			}
			return
		}
		curves := ms.Curves(nil)
		for pu := range curves {
			if dead[pu] {
				curves[pu] = deadCurve{}
			}
		}
		res, err := ipm.NewSolver(ipm.Options{}).Solve(ipm.Problem{Curves: curves, Total: float64(total)})
		if err != nil {
			t.Fatalf("solve failed on a validated model set: %v\nmodels: %v", err, ms.PU)
		}
		var sum float64
		for pu, x := range res.X {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || (dead[pu] && x != 0) {
				t.Fatalf("block size %g for unit %d (dead %v)", x, pu, dead[pu])
			}
			sum += x
		}
		if math.Abs(sum-float64(total)) > 1e-6*float64(total) {
			t.Fatalf("block sizes sum to %g, want %d", sum, total)
		}
	})
}
