// Package span is the causal-tracing layer of the runtime: it turns the
// telemetry event stream of a run into a span DAG — one chain of
// queue → transfer → wait → compute spans per block, linked by parent
// edges, plus master-side fit/solve overhead spans, speculation-race
// spans charged to the losing copy's unit, and marker spans for
// rebalances and requeues.
//
// The Recorder is a telemetry.Sink, so both engines emit spans for free
// through the existing event bus; attachment is passive and cannot perturb
// the simulation's numerics (the golden record hashes are identical with a
// recorder attached). The completed DAG feeds Analyze (critical.go), which
// produces the run's blame vector and critical chains.
package span

import (
	"plbhec/internal/starpu"
	"plbhec/internal/telemetry"
)

// Kind classifies one span.
type Kind uint8

// The span kinds of a run DAG.
const (
	// KindQueue is submit → transfer start: the block sat in the master's
	// submission path (behind earlier transfers or the master's own clock).
	KindQueue Kind = iota
	// KindTransfer is the block's data movement (NIC + PCIe on the
	// simulator; queue wait on the live engine, whose workers pull
	// pre-resident data).
	KindTransfer
	// KindWait is transfer end → exec start: data was resident but the unit
	// was still busy with earlier work.
	KindWait
	// KindCompute is the kernel execution. Exactly one per completed block;
	// its chain root's Start is the block's submit time.
	KindCompute
	// KindOverhead is a master-side fit/solve interval (Label "fit" or
	// "solve", PU = -1).
	KindOverhead
	// KindSpeculate covers a speculation race on the losing copy's unit,
	// from backup launch to resolution (Label "win" or "wasted"); the
	// zero-length Label "launch" marker records the watchdog expiry itself.
	KindSpeculate
	// KindStall is a zero-length rebalance marker (Label is the cause).
	KindStall
	// KindRequeue is a zero-length marker for a block moved off a failed
	// unit.
	KindRequeue
)

// String names the kind for tables and debug output.
func (k Kind) String() string {
	switch k {
	case KindQueue:
		return "queue"
	case KindTransfer:
		return "transfer"
	case KindWait:
		return "wait"
	case KindCompute:
		return "compute"
	case KindOverhead:
		return "overhead"
	case KindSpeculate:
		return "speculate"
	case KindStall:
		return "stall"
	case KindRequeue:
		return "requeue"
	}
	return "unknown"
}

// Span is one node of the causal DAG. It is a flat value type — recording
// one never allocates (the Label strings are interned constants shared with
// the telemetry events). Spans are identified by their index in the
// recorder's arena: Span.ID always equals that index, and Parent < ID for
// every non-root span, which makes the DAG acyclic by construction.
type Span struct {
	ID     int32
	Parent int32 // causal parent span ID, -1 for roots
	Kind   Kind
	PU     int32 // processing unit, -1 for master-side spans
	Aux    int32 // backup unit for speculation spans, else -1
	Seq    int32 // block sequence number, -1 when not block-scoped
	Units  int64 // block size in work units, 0 when not block-scoped
	Start  float64
	End    float64
	Label  string // kind-specific detail ("fit", "win", cause...)
}

// Duration is the span's extent in engine seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// Recorder converts the telemetry event stream into the span arena. It
// implements telemetry.Sink; attach it to a session's hub before Run. The
// hot path (EvTaskComplete) appends into pre-grown capacity and performs
// zero allocations per event once the arena is warm — see
// TestRecorderZeroAlloc.
//
// Like every sink, Consume is serialized on the driving goroutine; a
// Recorder must not be shared across concurrently running sessions.
type Recorder struct {
	spans []Span
	// open maps a speculated block's seq to its launch-marker span while
	// the race is unresolved (touched only on EvSpeculate — cold path).
	open map[int32]int32
}

// NewRecorder returns a recorder pre-grown for a typical run.
func NewRecorder() *Recorder {
	r := &Recorder{open: make(map[int32]int32)}
	r.Grow(4096)
	return r
}

// Grow ensures capacity for at least n more spans without reallocating.
func (r *Recorder) Grow(n int) {
	if free := cap(r.spans) - len(r.spans); free < n {
		grown := make([]Span, len(r.spans), len(r.spans)+n)
		copy(grown, r.spans)
		r.spans = grown
	}
}

// Reset clears the recorder for a new run, keeping the arena's capacity.
func (r *Recorder) Reset() {
	r.spans = r.spans[:0]
	for k := range r.open {
		delete(r.open, k)
	}
}

// Spans returns the recorded DAG. The slice aliases the arena: read it
// after the run, before any Reset.
func (r *Recorder) Spans() []Span { return r.spans }

// push appends a span, assigning its ID, and returns the ID.
func (r *Recorder) push(s Span) int32 {
	id := int32(len(r.spans))
	s.ID = id
	r.spans = append(r.spans, s)
	return id
}

// Consume implements telemetry.Sink.
func (r *Recorder) Consume(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.EvTaskComplete:
		r.recordLifecycle(ev.Time, ev.TransferStart, ev.TransferEnd, ev.ExecStart, ev.End,
			int32(ev.PU), int32(ev.Seq), ev.Units)
	case telemetry.EvOverhead:
		r.push(Span{Parent: -1, Kind: KindOverhead, PU: -1, Aux: -1, Seq: -1,
			Start: ev.Time, End: ev.End, Label: ev.Name})
	case telemetry.EvSpeculate:
		r.recordSpeculation(ev)
	case telemetry.EvRebalance:
		r.push(Span{Parent: -1, Kind: KindStall, PU: -1, Aux: -1, Seq: -1,
			Start: ev.Time, End: ev.Time, Label: ev.Name})
	case telemetry.EvRequeue:
		r.push(Span{Parent: -1, Kind: KindRequeue, PU: int32(ev.PU), Aux: -1,
			Seq: int32(ev.Seq), Units: ev.Units, Start: ev.Time, End: ev.Time})
	}
}

// recordLifecycle appends one block's queue→transfer→wait→compute chain.
// Zero-length stages are skipped, so the chain root's Start is always the
// submit time and consecutive spans abut exactly.
func (r *Recorder) recordLifecycle(submit, tStart, tEnd, eStart, eEnd float64, pu, seq int32, units int64) {
	parent := int32(-1)
	if tStart > submit {
		parent = r.push(Span{Parent: parent, Kind: KindQueue, PU: pu, Aux: -1,
			Seq: seq, Units: units, Start: submit, End: tStart})
	}
	if tEnd > tStart {
		parent = r.push(Span{Parent: parent, Kind: KindTransfer, PU: pu, Aux: -1,
			Seq: seq, Units: units, Start: tStart, End: tEnd})
	}
	if eStart > tEnd {
		parent = r.push(Span{Parent: parent, Kind: KindWait, PU: pu, Aux: -1,
			Seq: seq, Units: units, Start: tEnd, End: eStart})
	}
	r.push(Span{Parent: parent, Kind: KindCompute, PU: pu, Aux: -1,
		Seq: seq, Units: units, Start: eStart, End: eEnd})
}

// recordSpeculation turns the launch/win/wasted markers of a speculation
// race into spans. The race interval [launch, resolution] is charged to the
// LOSING copy's unit — the winner's work is already a compute span, the
// loser produced no task record, so this span is the only place its burned
// time appears.
func (r *Recorder) recordSpeculation(ev telemetry.Event) {
	orig, backup := int32(ev.PU), int32(ev.Value)
	seq := int32(ev.Seq)
	switch ev.Name {
	case "launch":
		id := r.push(Span{Parent: -1, Kind: KindSpeculate, PU: orig, Aux: backup,
			Seq: seq, Units: ev.Units, Start: ev.Time, End: ev.Time, Label: "launch"})
		r.open[seq] = id
	case "win", "wasted":
		loser := orig // "win": backup finished first, the original burned its time
		if ev.Name == "wasted" {
			loser = backup // original finished first, the backup burned its time
		}
		start := ev.Time
		parent := int32(-1)
		if id, ok := r.open[seq]; ok {
			start = r.spans[id].Start
			parent = id
			delete(r.open, seq)
		}
		r.push(Span{Parent: parent, Kind: KindSpeculate, PU: loser, Aux: backup,
			Seq: seq, Units: ev.Units, Start: start, End: ev.Time, Label: ev.Name})
	}
}

// FromReport reconstructs the span DAG of a completed run offline, from its
// report alone — block lifecycles from the task records and solver stalls
// from the overhead log. Speculation-race spans need the live event stream
// and are absent here; the blame vector still sums to 1 (the loser's burned
// time degrades to queue/idle attribution).
func FromReport(rep *starpu.Report) []Span {
	r := &Recorder{}
	r.Grow(4*len(rep.Records) + len(rep.OverheadSpans))
	for _, rec := range rep.Records {
		r.recordLifecycle(rec.SubmitTime, rec.TransferStart, rec.TransferEnd,
			rec.ExecStart, rec.ExecEnd, int32(rec.PU), int32(rec.Seq), rec.Units)
	}
	for _, ov := range rep.OverheadSpans {
		r.push(Span{Parent: -1, Kind: KindOverhead, PU: -1, Aux: -1, Seq: -1,
			Start: ov.Start, End: ov.End, Label: ov.Kind})
	}
	return r.spans
}
