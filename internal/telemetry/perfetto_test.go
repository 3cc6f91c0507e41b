package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// feedPerfetto drives a sink with a representative run: two PUs, link
// traffic, phase transitions, solver activity, and a distribution change.
func feedPerfetto() *PerfettoSink {
	p := NewPerfettoSink([]string{"m1/cpu", "m1/gpu"})
	p.Consume(Event{Kind: EvPhase, Time: 0, Name: "modeling"})
	p.Consume(Event{Kind: EvLinkSample, Time: 0.1, End: 0.3, Name: "m1/nic", Units: 64})
	p.Consume(Event{Kind: EvTaskComplete, Time: 0, TransferStart: 0.1, TransferEnd: 0.3,
		ExecStart: 0.3, End: 1.1, PU: 0, Seq: 0, Units: 64})
	p.Consume(Event{Kind: EvFit, Time: 1.2, PU: 0, Value: 0.01, Aux: 0.95})
	p.Consume(Event{Kind: EvFit, Time: 1.2, PU: -1})
	p.Consume(Event{Kind: EvSolve, Time: 1.4, Name: "waterfill", Value: 12, Aux: 1e-9})
	p.Consume(Event{Kind: EvDistribution, Time: 1.5, Name: "modeling-phase", Shares: []float64{0.3, 0.7}})
	p.Consume(Event{Kind: EvPhase, Time: 1.5, Name: "executing"})
	p.Consume(Event{Kind: EvTaskComplete, Time: 1.5, TransferStart: 1.5, TransferEnd: 1.6,
		ExecStart: 1.6, End: 2.9, PU: 1, Seq: 1, Units: 512})
	p.Consume(Event{Kind: EvRebalance, Time: 2.9, Name: "threshold"})
	return p
}

// TestPerfettoShape is the golden-shape test for the trace_event export:
// valid JSON, a traceEvents array, the required ph/ts/pid/tid keys on every
// entry, and monotonic non-decreasing timestamps.
func TestPerfettoShape(t *testing.T) {
	var buf bytes.Buffer
	if err := feedPerfetto().Write(&buf); err != nil {
		t.Fatal(err)
	}

	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	raw, ok := top["traceEvents"]
	if !ok {
		t.Fatal("missing traceEvents array")
	}
	var evs []map[string]any
	if err := json.Unmarshal(raw, &evs); err != nil {
		t.Fatalf("traceEvents not an array of objects: %v", err)
	}
	if len(evs) < 10 {
		t.Fatalf("suspiciously few trace events: %d", len(evs))
	}

	lastTs := -1.0
	phs := map[string]int{}
	for i, ev := range evs {
		for _, key := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing required key %q: %v", i, key, ev)
			}
		}
		ts, ok := ev["ts"].(float64)
		if !ok {
			t.Fatalf("event %d ts is not a number: %v", i, ev["ts"])
		}
		if ts < lastTs {
			t.Fatalf("event %d ts %g < previous %g (not monotonic)", i, ts, lastTs)
		}
		lastTs = ts
		phs[ev["ph"].(string)]++
	}

	// Complete slices for exec + transfer, metadata naming the tracks,
	// async begin/end for the phases, instants for scheduler decisions.
	for _, ph := range []string{"X", "M", "b", "e", "i"} {
		if phs[ph] == 0 {
			t.Errorf("no %q events in trace (got %v)", ph, phs)
		}
	}
	if phs["b"] != phs["e"] {
		t.Errorf("unbalanced async slices: %d begins, %d ends", phs["b"], phs["e"])
	}

	// Both scheduler phases must appear as async slices, closed at the end.
	names := map[string]bool{}
	for _, ev := range evs {
		if ev["ph"] == "b" {
			names[ev["name"].(string)] = true
		}
	}
	if !names["modeling"] || !names["executing"] {
		t.Errorf("phase slices missing: %v", names)
	}
}

// TestPerfettoResilienceTracks covers the gap-fill: requeue, speculation,
// blacklist and recovery markers land on a named "resilience" thread,
// fit/solve overhead renders as slices on the scheduler track, and a
// resolved speculation race draws a flow-arrow pair. The resilience track
// only exists when the run produced such events.
func TestPerfettoResilienceTracks(t *testing.T) {
	p := feedPerfetto()
	p.Consume(Event{Kind: EvOverhead, Time: 1.3, End: 1.4, PU: -1, Name: "solve"})
	p.Consume(Event{Kind: EvRequeue, Time: 3.0, PU: 0, Seq: 5, Units: 64})
	p.Consume(Event{Kind: EvBlacklist, Time: 3.1, Name: "m1/cpu", PU: 0})
	p.Consume(Event{Kind: EvRecovery, Time: 3.2, Name: "m1/cpu", PU: 0})
	p.Consume(Event{Kind: EvSpeculate, Time: 3.3, Name: "launch", PU: 0, Seq: 6, Units: 64, Value: 1})
	p.Consume(Event{Kind: EvSpeculate, Time: 3.6, Name: "win", PU: 0, Seq: 6, Units: 64, Value: 1})
	p.SetCriticalFlow([]FlowPoint{{PU: -1, Time: 0}, {PU: 0, Time: 1.1}, {PU: 1, Time: 2.9}})

	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatal(err)
	}

	// Thread-name metadata: every expected track, exactly once each.
	tracks := map[string]float64{}
	for _, ev := range top.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			name := ev["args"].(map[string]any)["name"].(string)
			if _, dup := tracks[name]; dup {
				t.Errorf("duplicate thread_name %q", name)
			}
			tracks[name] = ev["tid"].(float64)
		}
	}
	for name, tid := range map[string]float64{
		"m1/cpu": 0, "m1/gpu": 1, "scheduler": 1000, "resilience": 1001,
	} {
		if got, ok := tracks[name]; !ok || got != tid {
			t.Errorf("track %q: tid = %v, present = %v, want %v", name, got, ok, tid)
		}
	}

	// The gap-fill markers sit on their tracks; the overhead slice on the
	// scheduler's.
	onTid := func(name string) float64 {
		t.Helper()
		for _, ev := range top.TraceEvents {
			if n, _ := ev["name"].(string); n == name {
				return ev["tid"].(float64)
			}
		}
		t.Fatalf("no event named %q", name)
		return -1
	}
	for name, tid := range map[string]float64{
		"requeue":           1001,
		"blacklist: m1/cpu": 1001,
		"recovery: m1/cpu":  1001,
		"speculate: launch": 1001,
		"solve":             1000,
	} {
		if got := onTid(name); got != tid {
			t.Errorf("%q on tid %v, want %v", name, got, tid)
		}
	}

	// Flow arrows: the speculation race pair and the critical-path chain.
	flows := map[string][]string{}
	for _, ev := range top.TraceEvents {
		ph := ev["ph"].(string)
		if ph == "s" || ph == "t" || ph == "f" {
			name := ev["name"].(string)
			flows[name] = append(flows[name], ph)
		}
	}
	if got := flows["speculation"]; len(got) != 2 || got[0] != "s" || got[1] != "f" {
		t.Errorf("speculation flow phases = %v, want [s f]", got)
	}
	if got := flows["critical-path"]; len(got) != 3 || got[0] != "s" || got[1] != "t" || got[2] != "f" {
		t.Errorf("critical-path flow phases = %v, want [s t f]", got)
	}
}

// Without resilience events the resilience track stays out of the trace,
// keeping small runs small.
func TestPerfettoNoSpuriousTracks(t *testing.T) {
	var buf bytes.Buffer
	if err := feedPerfetto().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("resilience")) {
		t.Error(`track "resilience" present in a run without its events`)
	}
}

func TestPerfettoDetachesShares(t *testing.T) {
	p := NewPerfettoSink([]string{"a"})
	shares := []float64{0.5, 0.5}
	p.Consume(Event{Kind: EvDistribution, Time: 1, Name: "d", Shares: shares})
	shares[0] = 0.9 // mutate the caller's slice after emission
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("0.9")) {
		t.Error("sink aliased the caller's shares slice")
	}
}
