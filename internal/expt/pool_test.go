package expt

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"plbhec/internal/telemetry"
)

// small grid shared by the determinism tests: two schedulers on two tiny
// scenarios, three seeds each.
func testCells() []Cell {
	scA := Scenario{Kind: MM, Size: 2048, Machines: 2, Seeds: 3, BaseSeed: 42}
	scB := Scenario{Kind: MM, Size: 4096, Machines: 2, Seeds: 3, BaseSeed: 42}
	return []Cell{
		{Sc: scA, Name: PLBHeC},
		{Sc: scA, Name: Greedy},
		{Sc: scB, Name: PLBHeC},
		{Sc: scB, Name: Greedy},
	}
}

// TestRunCellsDeterministic is the tentpole guarantee: a parallel sweep
// produces bit-for-bit the results of a sequential one, at any -jobs.
func TestRunCellsDeterministic(t *testing.T) {
	seq, err := NewRunner(context.Background(), 1).RunCells(testCells())
	if err != nil {
		t.Fatalf("sequential RunCells: %v", err)
	}
	for _, jobs := range []int{2, 4, 8} {
		par, err := NewRunner(context.Background(), jobs).RunCells(testCells())
		if err != nil {
			t.Fatalf("jobs=%d RunCells: %v", jobs, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("jobs=%d: %d results, want %d", jobs, len(par), len(seq))
		}
		for i := range seq {
			a, b := *seq[i], *par[i]
			// LastReport is a fresh allocation per run; compare its scalar
			// outcome and drop the pointer before the deep comparison.
			if a.LastReport.Makespan != b.LastReport.Makespan {
				t.Errorf("jobs=%d cell %d: last-report makespan %v != %v",
					jobs, i, b.LastReport.Makespan, a.LastReport.Makespan)
			}
			a.LastReport, b.LastReport = nil, nil
			// solverSeconds is measured host wall time — nondeterministic
			// even between two sequential runs — so it is outside the
			// bit-for-bit guarantee.
			a.SchedStats = dropKey(a.SchedStats, "solverSeconds")
			b.SchedStats = dropKey(b.SchedStats, "solverSeconds")
			if !reflect.DeepEqual(a, b) {
				t.Errorf("jobs=%d cell %d: parallel result differs from sequential:\n got %+v\nwant %+v",
					jobs, i, b, a)
			}
		}
	}
}

// dropKey copies m without key (the originals stay shared with the Result).
func dropKey(m map[string]float64, key string) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if k != key {
			out[k] = v
		}
	}
	return out
}

// TestForEachPanicIsolated: a panic in one index becomes an error for that
// index; the others still run.
func TestForEachPanicIsolated(t *testing.T) {
	r := NewRunner(context.Background(), 4)
	ran := make([]bool, 8)
	err := r.forEach(len(ran), func(i int) error {
		if i == 3 {
			panic("boom")
		}
		ran[i] = true
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic message", err)
	}
	for i, ok := range ran {
		if i != 3 && !ok {
			t.Errorf("index %d did not run after sibling panic", i)
		}
	}
}

// TestForEachLowestErrorWins: the reported error is the smallest index's,
// independent of scheduling order.
func TestForEachLowestErrorWins(t *testing.T) {
	r := NewRunner(context.Background(), 4)
	err := r.forEach(6, func(i int) error {
		if i%2 == 1 {
			return errors.New(strings.Repeat("x", i))
		}
		return nil
	})
	if err == nil || len(err.Error()) != 1 {
		t.Fatalf("err = %q, want index 1's error", err)
	}
}

// TestRunCellPanicContained: an engine/scenario panic inside a cell comes
// back as that cell's error and bumps the panic gauge.
func TestRunCellPanicContained(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRunner(context.Background(), 2)
	r.AttachMetrics(reg)
	bad := Scenario{Kind: AppKind("nope"), Size: 1024, Machines: 1, Seeds: 2, BaseSeed: 1}
	_, err := r.RunCells([]Cell{{Sc: bad, Name: PLBHeC}})
	if err == nil || !strings.Contains(err.Error(), "unknown app kind") {
		t.Fatalf("err = %v, want contained panic", err)
	}
	snap := reg.Snapshot()
	if got := snap["expt_cell_panics"]; got < 1 {
		t.Errorf("expt_cell_panics = %v, want >= 1", got)
	}
	if got := snap["expt_cells_done"]; got != 1 {
		t.Errorf("expt_cells_done = %v, want 1", got)
	}
}

// TestRunnerCancellation: a cancelled context aborts the sweep with the
// context's error.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(ctx, 4)
	_, err := r.RunCells(testCells())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestColumnStats(t *testing.T) {
	mean, std := columnStats(nil)
	if mean != nil || std != nil {
		t.Errorf("columnStats(nil) = %v, %v; want nil, nil", mean, std)
	}
	mean, std = columnStats([][]float64{})
	if mean != nil || std != nil {
		t.Errorf("columnStats(empty) = %v, %v; want nil, nil", mean, std)
	}
	// Ragged rows: the column count follows the first row, short rows just
	// contribute fewer samples.
	mean, std = columnStats([][]float64{
		{1, 10, 100},
		{3},
		{5, 20},
	})
	if len(mean) != 3 || len(std) != 3 {
		t.Fatalf("ragged columnStats lengths = %d, %d; want 3, 3", len(mean), len(std))
	}
	if mean[0] != 3 {
		t.Errorf("mean[0] = %v, want 3", mean[0])
	}
	if mean[1] != 15 {
		t.Errorf("mean[1] = %v, want 15", mean[1])
	}
	if mean[2] != 100 {
		t.Errorf("mean[2] = %v, want 100", mean[2])
	}
	if std[2] != 0 {
		t.Errorf("std[2] = %v, want 0 (single sample)", std[2])
	}
	// Rows with an empty first row: zero columns, empty (non-nil) output.
	mean, std = columnStats([][]float64{{}, {1, 2}})
	if len(mean) != 0 || len(std) != 0 {
		t.Errorf("empty-first-row columnStats = %v, %v; want empty", mean, std)
	}
}

// TestRunnerJobsDefault: jobs <= 0 selects GOMAXPROCS, and Jobs reports the
// bound.
func TestRunnerJobsDefault(t *testing.T) {
	if got := NewRunner(nil, 0).Jobs(); got < 1 {
		t.Errorf("Jobs() = %d, want >= 1", got)
	}
	if got := NewRunner(nil, 3).Jobs(); got != 3 {
		t.Errorf("Jobs() = %d, want 3", got)
	}
	if NewRunner(nil, 1).Context() == nil {
		t.Error("Context() = nil, want background")
	}
}
