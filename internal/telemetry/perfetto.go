package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// PerfettoSink buffers runtime events and renders them as Chrome
// trace_event JSON (the legacy format every Perfetto build still ingests),
// so any run opens directly in ui.perfetto.dev or chrome://tracing.
//
// Track layout:
//
//   - pid 1 "engine": one thread per processing unit carrying kernel-
//     execution slices, plus a "scheduler" thread with async slices for
//     scheduler phases, master-side fit/solve overhead slices, and instant
//     markers (fits, solves, rebalances, distribution changes); a
//     "resilience" thread with failover/requeue/recovery/blacklist/
//     speculation markers and speculation-race flow arrows; and a "ladder"
//     thread with degradation-ladder transitions. The resilience and ladder
//     threads appear only when the run produced such events.
//   - pid 2 "links": one thread per communication link (NIC, PCIe, live
//     worker queues) carrying occupancy slices.
//
// Engine seconds map to trace microseconds.
type PerfettoSink struct {
	puNames []string
	events  []Event

	linkTID map[string]int
	linkOrd []string

	// critical is the run's critical path (SetCriticalFlow); Write renders
	// it as a chain of flow arrows across the unit tracks.
	critical []FlowPoint
}

// FlowPoint is one anchor of the critical-path flow chain: the critical
// chain passed through unit PU (−1: the scheduler track) at Time seconds.
type FlowPoint struct {
	PU   int
	Time float64
}

// SetCriticalFlow records the run's critical path for rendering. Call it
// after the run, before Write, with one point per critical-chain step
// boundary (e.g. from the Steps of the top chain of a span analysis).
func (p *PerfettoSink) SetCriticalFlow(points []FlowPoint) {
	p.critical = append(p.critical[:0], points...)
}

// NewPerfettoSink returns a sink for a run over the given processing units
// (cluster order).
func NewPerfettoSink(puNames []string) *PerfettoSink {
	return &PerfettoSink{puNames: puNames, linkTID: make(map[string]int)}
}

// Consume implements Sink: events are buffered until Write.
func (p *PerfettoSink) Consume(ev Event) {
	if ev.Kind == EvLinkSample {
		if _, ok := p.linkTID[ev.Name]; !ok {
			p.linkTID[ev.Name] = len(p.linkOrd)
			p.linkOrd = append(p.linkOrd, ev.Name)
		}
		// Detach the shared Shares backing array for buffered kinds below.
	}
	if ev.Shares != nil {
		ev.Shares = append([]float64(nil), ev.Shares...)
	}
	p.events = append(p.events, ev)
}

// trace_event process/thread IDs. PU threads are their cluster index.
const (
	pidEngine = 1
	pidLinks  = 2
	tidSched  = 1000 // scheduler track, clear of any realistic PU count
	tidResil  = 1001 // resilience track: failovers, requeues, speculation
	tidLadder = 1002 // degradation-ladder track: fallback transitions
)

// perfettoEvent is one trace_event entry. Every entry carries the four
// keys tooling requires (ph, ts, pid, tid).
type perfettoEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	ID    int            `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Bp    string         `json:"bp,omitempty"` // flow binding point ("e": enclosing slice)
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace_event JSON object.
type traceFile struct {
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	TraceEvents     []perfettoEvent `json:"traceEvents"`
}

const usPerSec = 1e6

// Write renders the buffered events. Call it once, after the run.
func (p *PerfettoSink) Write(w io.Writer) error {
	var out []perfettoEvent

	meta := func(pid, tid int, key, name string) {
		out = append(out, perfettoEvent{
			Name: key, Ph: "M", Ts: 0, Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(pidEngine, 0, "process_name", "engine")
	meta(pidLinks, 0, "process_name", "links")
	for i, n := range p.puNames {
		meta(pidEngine, i, "thread_name", n)
	}
	meta(pidEngine, tidSched, "thread_name", "scheduler")
	var hasResil, hasLadder bool
	for _, ev := range p.events {
		switch ev.Kind {
		case EvFailover, EvRequeue, EvRecovery, EvBlacklist, EvSpeculate:
			hasResil = true
		case EvFallback:
			hasLadder = true
		}
	}
	if hasResil {
		meta(pidEngine, tidResil, "thread_name", "resilience")
	}
	if hasLadder {
		meta(pidEngine, tidLadder, "thread_name", "ladder")
	}
	for name, tid := range p.linkTID {
		meta(pidLinks, tid, "thread_name", name)
	}

	instant := func(ev Event, tid int, name string, args map[string]any) {
		out = append(out, perfettoEvent{
			Name: name, Ph: "i", Ts: ev.Time * usPerSec,
			Pid: pidEngine, Tid: tid, Scope: "t", Args: args,
		})
	}

	var (
		phaseOpen  bool
		phaseName  string
		phaseStart float64
		phaseID    int
		maxTs      float64
		flowID     = 1 << 20       // clear of the phase id space
		specFlow   = map[int]int{} // open speculation races: seq → flow id
	)
	closePhase := func(end float64) {
		if !phaseOpen {
			return
		}
		phaseID++
		out = append(out,
			perfettoEvent{Name: phaseName, Ph: "b", Ts: phaseStart * usPerSec,
				Pid: pidEngine, Tid: tidSched, Cat: "sched", ID: phaseID},
			perfettoEvent{Name: phaseName, Ph: "e", Ts: end * usPerSec,
				Pid: pidEngine, Tid: tidSched, Cat: "sched", ID: phaseID},
		)
		phaseOpen = false
	}

	for _, ev := range p.events {
		if ev.Time > maxTs {
			maxTs = ev.Time
		}
		if ev.End > maxTs {
			maxTs = ev.End
		}
		switch ev.Kind {
		case EvTaskComplete:
			out = append(out, perfettoEvent{
				Name: fmt.Sprintf("exec %d", ev.Units), Ph: "X",
				Ts: ev.ExecStart * usPerSec, Dur: (ev.End - ev.ExecStart) * usPerSec,
				Pid: pidEngine, Tid: ev.PU, Cat: "task",
				Args: map[string]any{"seq": ev.Seq, "units": ev.Units},
			})
		case EvLinkSample:
			out = append(out, perfettoEvent{
				Name: "transfer", Ph: "X",
				Ts: ev.Time * usPerSec, Dur: (ev.End - ev.Time) * usPerSec,
				Pid: pidLinks, Tid: p.linkTID[ev.Name], Cat: "link",
				Args: map[string]any{"units": ev.Units},
			})
		case EvPhase:
			closePhase(ev.Time)
			phaseOpen, phaseName, phaseStart = true, ev.Name, ev.Time
		case EvOverhead:
			out = append(out, perfettoEvent{
				Name: ev.Name, Ph: "X",
				Ts: ev.Time * usPerSec, Dur: (ev.End - ev.Time) * usPerSec,
				Pid: pidEngine, Tid: tidSched, Cat: "overhead",
			})
		case EvDistribution:
			instant(ev, tidSched, "distribution: "+ev.Name, map[string]any{"shares": ev.Shares})
		case EvFit:
			if ev.PU >= 0 {
				instant(ev, tidSched, "fit", map[string]any{"pu": ev.PU, "rmse": ev.Value, "r2": ev.Aux})
			}
		case EvSolve:
			instant(ev, tidSched, "solve: "+ev.Name, map[string]any{"tau_steps": ev.Value, "residual": ev.Aux})
		case EvCoverage:
			instant(ev, tidSched, "coverage", map[string]any{"ratio": ev.Value})
		case EvRebalance:
			instant(ev, tidSched, "rebalance: "+ev.Name, nil)
		case EvFailover:
			instant(ev, tidResil, "failover: "+ev.Name, map[string]any{"pu": ev.PU})
		case EvKeepAlive:
			instant(ev, tidSched, "keep-alive", map[string]any{"pu": ev.PU})
		case EvRequeue:
			instant(ev, tidResil, "requeue", map[string]any{"pu": ev.PU, "seq": ev.Seq, "units": ev.Units})
		case EvRecovery:
			instant(ev, tidResil, "recovery: "+ev.Name, map[string]any{"pu": ev.PU})
		case EvBlacklist:
			instant(ev, tidResil, "blacklist: "+ev.Name, map[string]any{"pu": ev.PU})
		case EvSpeculate:
			instant(ev, tidResil, "speculate: "+ev.Name, map[string]any{
				"pu": ev.PU, "seq": ev.Seq, "units": ev.Units, "backup": ev.Value,
			})
			// A resolved race also draws a flow arrow from the original
			// copy's unit at launch time to the resolving unit — the pair is
			// matched by seq-keyed id.
			switch ev.Name {
			case "launch":
				flowID++
				specFlow[ev.Seq] = flowID
				out = append(out, perfettoEvent{
					Name: "speculation", Ph: "s", Ts: ev.Time * usPerSec,
					Pid: pidEngine, Tid: ev.PU, Cat: "spec", ID: flowID,
				})
			case "win", "wasted":
				if id, ok := specFlow[ev.Seq]; ok {
					delete(specFlow, ev.Seq)
					out = append(out, perfettoEvent{
						Name: "speculation", Ph: "f", Ts: ev.Time * usPerSec,
						Pid: pidEngine, Tid: int(ev.Value), Cat: "spec",
						ID: id, Bp: "e",
					})
				}
			}
		case EvFallback:
			instant(ev, tidLadder, "fallback: "+ev.Name, map[string]any{"rung": ev.Value})
		}
	}
	closePhase(maxTs)

	// The critical-path chain: one flow arrow sequence threaded through the
	// unit tracks at each step boundary.
	if len(p.critical) > 1 {
		flowID++
		for i, pt := range p.critical {
			ph := "t"
			switch i {
			case 0:
				ph = "s"
			case len(p.critical) - 1:
				ph = "f"
			}
			tid := pt.PU
			if tid < 0 {
				tid = tidSched
			}
			out = append(out, perfettoEvent{
				Name: "critical-path", Ph: ph, Ts: pt.Time * usPerSec,
				Pid: pidEngine, Tid: tid, Cat: "critical", ID: flowID, Bp: "e",
			})
		}
	}

	// Monotonic timestamps keep every trace_event consumer happy; sort is
	// stable so same-ts events keep emission order ("b" before "e").
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{DisplayTimeUnit: "ms", TraceEvents: out})
}
