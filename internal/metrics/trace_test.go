package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/sched"
	"plbhec/internal/starpu"
)

func traceReport() *starpu.Report {
	return &starpu.Report{
		Makespan: 10,
		PUNames:  []string{"a", "b"},
		Records: []starpu.TaskRecord{
			{Seq: 0, PU: 0, Units: 10, SubmitTime: 0, TransferStart: 0, TransferEnd: 1, ExecStart: 1, ExecEnd: 5},
			{Seq: 1, PU: 1, Units: 20, SubmitTime: 0, TransferStart: 0, TransferEnd: 0, ExecStart: 2, ExecEnd: 10},
		},
		Distributions: []starpu.Distribution{{Label: "x", Time: 3, X: []float64{0.4, 0.6}}},
	}
}

// realRun produces a report from an actual simulated PLB-HeC run.
func realRun(t *testing.T) *starpu.Report {
	t.Helper()
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1, NoiseSigma: cluster.DefaultNoiseSigma})
	app := apps.NewMatMul(apps.MatMulConfig{N: 4096})
	rep, err := starpu.NewSimSession(clu, app, starpu.SimConfig{}).Run(
		sched.NewPLBHeC(sched.Config{InitialBlockSize: 8}))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTraceOrderingAndKinds(t *testing.T) {
	evs := Trace(traceReport())
	// 2 submits + 2 execs + 1 transfer + 1 distribution.
	if len(evs) != 6 {
		t.Fatalf("events = %d, want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatal("events not time-ordered")
		}
	}
	kinds := map[EventKind]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	if kinds[EventSubmit] != 2 || kinds[EventExec] != 2 ||
		kinds[EventTransfer] != 1 || kinds[EventDistribution] != 1 {
		t.Errorf("kind counts = %v", kinds)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	evs := Trace(traceReport())
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var back []Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		back = append(back, ev)
	}
	if len(back) != len(evs) {
		t.Fatalf("round trip lost events: %d vs %d", len(back), len(evs))
	}
	for i := range evs {
		if back[i].Kind != evs[i].Kind || back[i].Time != evs[i].Time || back[i].PU != evs[i].PU {
			t.Errorf("event %d mismatch: %+v vs %+v", i, back[i], evs[i])
		}
	}
}

func TestAnalyzeBreakdown(t *testing.T) {
	rows := Analyze(traceReport())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	a := rows[0]
	if a.Exec != 4 || a.Transfer != 1 || a.Queue != 0 {
		t.Errorf("pu a breakdown = %+v", a)
	}
	if a.Idle != 5 {
		t.Errorf("pu a idle = %g, want 5", a.Idle)
	}
	b := rows[1]
	if b.Exec != 8 || b.Queue != 2 {
		t.Errorf("pu b breakdown = %+v", b)
	}
}

func TestCriticalTail(t *testing.T) {
	tail := CriticalTail(traceReport(), 5)
	if len(tail) != 1 || tail[0].PU != 1 {
		t.Errorf("critical tail = %+v", tail)
	}
	if CriticalTail(&starpu.Report{}, 3) != nil {
		t.Error("empty report should yield nil tail")
	}
}

func TestTraceOnRealRun(t *testing.T) {
	// End-to-end: trace a real simulated run and sanity-check volumes.
	rep := realRun(t)
	evs := Trace(rep)
	if len(evs) < 2*len(rep.Records) {
		t.Errorf("trace has %d events for %d records", len(evs), len(rep.Records))
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty JSONL output")
	}
}
