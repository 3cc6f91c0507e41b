package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"plbhec/internal/starpu"
)

// EventKind labels one trace event.
type EventKind string

// The event kinds of a run trace.
const (
	EventSubmit       EventKind = "submit"
	EventTransfer     EventKind = "transfer"
	EventExec         EventKind = "exec"
	EventDistribution EventKind = "distribution"
)

// Event is one entry of a run trace. Times are engine seconds.
type Event struct {
	Kind  EventKind `json:"kind"`
	Time  float64   `json:"t"`
	End   float64   `json:"end,omitempty"`
	PU    int       `json:"pu,omitempty"`
	Name  string    `json:"name,omitempty"`
	Units int64     `json:"units,omitempty"`
	Seq   int       `json:"seq,omitempty"`
	// Label carries the distribution label for distribution events.
	Label string `json:"label,omitempty"`
	// Shares carries the normalized split for distribution events.
	Shares []float64 `json:"shares,omitempty"`
}

// Trace flattens a report into a time-ordered event trace: task
// submissions, transfers, kernel executions and distribution changes.
func Trace(rep *starpu.Report) []Event {
	var evs []Event
	name := func(pu int) string {
		if pu >= 0 && pu < len(rep.PUNames) {
			return rep.PUNames[pu]
		}
		return fmt.Sprintf("pu-%d", pu)
	}
	for _, r := range rep.Records {
		evs = append(evs,
			Event{Kind: EventSubmit, Time: r.SubmitTime, PU: r.PU, Name: name(r.PU), Units: r.Units, Seq: r.Seq},
			Event{Kind: EventExec, Time: r.ExecStart, End: r.ExecEnd, PU: r.PU, Name: name(r.PU), Units: r.Units, Seq: r.Seq},
		)
		if r.TransferEnd > r.TransferStart {
			evs = append(evs, Event{
				Kind: EventTransfer, Time: r.TransferStart, End: r.TransferEnd,
				PU: r.PU, Name: name(r.PU), Units: r.Units, Seq: r.Seq,
			})
		}
	}
	for _, d := range rep.Distributions {
		evs = append(evs, Event{
			Kind: EventDistribution, Time: d.Time, Label: d.Label, Shares: d.X,
		})
	}
	// Order by time, breaking ties by sequence number.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		return evs[i].Seq < evs[j].Seq
	})
	return evs
}

// WriteJSONL writes the trace as JSON Lines.
func WriteJSONL(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// Breakdown is a per-processing-unit decomposition of where a run's time
// went.
type Breakdown struct {
	PU       int
	Name     string
	Exec     float64 // kernel seconds
	Transfer float64 // link-occupancy seconds
	Queue    float64 // submit→transfer-start + transfer-end→exec-start waits
	Idle     float64 // makespan − (exec + queue-visible activity)
}

// Analyze computes per-unit time breakdowns, in cluster order, from Usage's
// per-unit sums plus each unit's queueing waits.
func Analyze(rep *starpu.Report) []Breakdown {
	queue := make([]float64, len(rep.PUNames))
	us := usage(rep, queue)
	rows := make([]Breakdown, len(us))
	for i, u := range us {
		b := Breakdown{PU: u.PU, Name: u.Name, Exec: u.BusySeconds, Transfer: u.TransferSecs, Queue: queue[i]}
		b.Idle = rep.Makespan - b.Exec - b.Transfer - b.Queue
		if b.Idle < 0 {
			b.Idle = 0
		}
		rows[i] = b
	}
	return rows
}

// CriticalTail returns the last n tasks, latest first, on the unit that
// finishes last — the straggler chain that sets the makespan.
func CriticalTail(rep *starpu.Report, n int) []starpu.TaskRecord {
	if len(rep.Records) == 0 {
		return nil
	}
	last := rep.Records[0]
	for _, r := range rep.Records {
		if r.ExecEnd > last.ExecEnd {
			last = r
		}
	}
	var chain []starpu.TaskRecord
	for _, r := range rep.Records {
		if r.PU == last.PU {
			chain = append(chain, r)
		}
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].ExecEnd > chain[j].ExecEnd })
	if len(chain) > n {
		chain = chain[:n]
	}
	return chain
}
