package expt

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"
	"time"

	"plbhec/internal/cluster"
	"plbhec/internal/fault"
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// hashReport folds a repetition's full TaskRecord stream into an FNV-1a
// hash, floats by IEEE-754 bit pattern — the same bit-exact comparison the
// repo's golden tests use.
func hashReport(rep *starpu.Report) string {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range rep.Records {
		word(uint64(r.Seq))
		word(uint64(r.PU))
		word(uint64(r.Lo))
		word(uint64(r.Hi))
		word(uint64(r.Units))
		word(math.Float64bits(r.SubmitTime))
		word(math.Float64bits(r.TransferStart))
		word(math.Float64bits(r.TransferEnd))
		word(math.Float64bits(r.ExecStart))
		word(math.Float64bits(r.ExecEnd))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRetryBackoffJobsDeterminism: a faulted scenario — device death with
// the default retry policy, so aborted blocks requeue with backoff — must
// produce bit-identical record streams per seed whether the repetitions run
// sequentially or fan out over a parallel pool. This is the determinism
// contract of the backoff machinery under concurrent requeues.
func TestRetryBackoffJobsDeterminism(t *testing.T) {
	const seeds, horizon = 4, 0.2
	death := chaosScenarios()[1] // GPU death mid-run
	// One single-repetition cell per seed, so every seed's stream is hashed.
	cells := make([]Cell, seeds)
	for i := range cells {
		cells[i] = Cell{Name: PLBHeC, Sc: Scenario{
			Kind: MM, Size: 4096, Machines: 2, Seeds: 1, BaseSeed: 9100 + int64(i),
			Sim:     starpu.SimConfig{Retry: true, Spec: starpu.DefaultSpeculationPolicy()},
			Prepare: faultsAt(death.gen, horizon),
		}}
	}
	sweep := func(jobs int) []string {
		results, err := NewRunner(context.Background(), jobs).RunCells(cells)
		if err != nil {
			t.Fatal(err)
		}
		hashes := make([]string, seeds)
		for i, res := range results {
			if res.LastReport == nil {
				t.Fatalf("seed %d: run did not survive the schedule", i)
			}
			hashes[i] = hashReport(res.LastReport)
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
	// And run-to-run at the same parallelism.
	if again := sweep(4); fmt.Sprint(again) != fmt.Sprint(par) {
		t.Errorf("parallel sweep not stable run-to-run: %v then %v", par, again)
	}
}

// TestRunCellTimeout: a cell deadline far below any realistic repetition
// time cancels every repetition, which must be recorded as timed-out —
// not hang, not fail the sweep.
func TestRunCellTimeout(t *testing.T) {
	r := NewRunner(context.Background(), 2)
	r.SetCellTimeout(time.Nanosecond)
	sc := Scenario{Kind: MM, Size: 16384, Machines: 2, Seeds: 3, BaseSeed: 1}
	res, err := r.RunCell(sc, PLBHeC)
	if err != nil {
		t.Fatalf("timed-out cell must not fail the sweep: %v", err)
	}
	if res.TimedOut != 3 {
		t.Errorf("TimedOut = %d, want 3", res.TimedOut)
	}
	if res.Makespan.N != 0 {
		t.Errorf("timed-out repetitions leaked %d makespan samples", res.Makespan.N)
	}
}

// TestRunCellNoTimeoutUnchanged: with no cell timeout configured the result
// reports zero timeouts and full samples.
func TestRunCellNoTimeoutUnchanged(t *testing.T) {
	r := NewRunner(context.Background(), 2)
	sc := Scenario{Kind: MM, Size: 2048, Machines: 2, Seeds: 2, BaseSeed: 1}
	res, err := r.RunCell(sc, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut != 0 {
		t.Errorf("TimedOut = %d, want 0", res.TimedOut)
	}
	if res.Makespan.N != 2 {
		t.Errorf("Makespan.N = %d, want 2", res.Makespan.N)
	}
}

// TestCellTimeoutEveryExperiment: -cell-timeout reaches every experiment,
// not only the paper figures. With a deadline no repetition can meet, each
// experiment that simulates must finish without error, count its cells in
// expt_cells_done and its cancelled repetitions in expt_reps_timed_out. The
// network sweep (3 fabrics × 4 schedulers) is checked exactly.
func TestCellTimeoutEveryExperiment(t *testing.T) {
	analytic := map[string]bool{"table1": true, "fig1": true, "solver": true}
	for _, e := range All() {
		reg := telemetry.NewRegistry()
		o := Options{Out: io.Discard, Quick: true, Seeds: 2, Jobs: 2,
			Metrics: reg, CellTimeout: time.Nanosecond}
		if err := e.Run(o); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		done := reg.Gauge("expt_cells_done").Value()
		timedOut := reg.Gauge("expt_reps_timed_out").Value()
		switch {
		case e.ID == "network":
			if done != 12 || timedOut != 24 {
				t.Errorf("network: %g cells done, %g repetitions timed out; want 12 and 24", done, timedOut)
			}
		case analytic[e.ID]:
		case done == 0 || timedOut == 0:
			t.Errorf("%s: %g cells done, %g repetitions timed out; want both > 0", e.ID, done, timedOut)
		}
	}
}

// TestLostRepetitions: a fault schedule that kills every unit ends each
// repetition in starpu.ErrFailedDevice. Under retry that is a lost data
// point, counted in Result.Lost; without retry it is the cell's error.
func TestLostRepetitions(t *testing.T) {
	killAll := func(_ int, sess *starpu.Session, clu *cluster.Cluster) error {
		s := fault.Schedule{Name: "kill-all"}
		for pu := range clu.PUs() {
			s.Specs = append(s.Specs, fault.FaultSpec{Kind: fault.DeviceDeath, At: 0.01, PU: pu})
		}
		return s.Apply(sess, clu)
	}
	sc := Scenario{Kind: MM, Size: 4096, Machines: 2, Seeds: 2, Prepare: killAll,
		Sim: starpu.SimConfig{Retry: true}}
	r := NewRunner(context.Background(), 2)
	res, err := r.RunCell(sc, PLBHeC)
	if err != nil {
		t.Fatalf("lost repetitions must not fail the cell: %v", err)
	}
	if res.Lost != 2 || res.TimedOut != 0 || res.Makespan.N != 0 || res.LastReport != nil {
		t.Errorf("Lost = %d, TimedOut = %d, samples = %d, LastReport = %v; want 2, 0, 0, nil",
			res.Lost, res.TimedOut, res.Makespan.N, res.LastReport)
	}
	sc.Sim.Retry = false
	if _, err := r.RunCell(sc, PLBHeC); err == nil {
		t.Error("without retry a run that loses every unit must fail the cell")
	}
}
