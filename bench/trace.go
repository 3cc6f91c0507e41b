package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"plbhec/internal/starpu"
	"plbhec/internal/stats"
	"plbhec/internal/telemetry"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kindWorkload     spanKind = iota // one iteration of a workload
	kindRun                          // one Session.Run: the engine's drive loop
	kindStart                        // Scheduler.Start
	kindTaskFinished                 // Scheduler.TaskFinished
	kindConsume                      // telemetry.Sink.Consume
	kindBench                        // the decorators' own bookkeeping inside a run
	numKinds
)

var kindNames = [numKinds]string{"workload", "run", "Start", "TaskFinished", "Consume", "bench"}

// span is one closed interval, in nanoseconds since the tracer's epoch.
type span struct {
	id, parent int32
	kind       spanKind
	label      int32 // index into tracer.labels, -1 for none
	start, end int64
}

// openSpan is a span still on the stack; child accumulates the durations of
// its closed children, so its self time is known when it closes.
type openSpan struct {
	id, label int32
	kind      spanKind
	start     int64
	child     int64
}

// maxSpans bounds the spans kept for the trace file. Workload and run spans
// are always kept; past the bound, per-call spans still feed the self-time
// totals but are not stored. The service workload alone makes tens of
// millions of sink calls per iteration.
const maxSpans = 1 << 18

// tracer records the benchmark's own spans around the calls it makes into
// the program. Every span is opened and closed on the goroutine that drives
// the session, so the stack needs no lock.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int64
	stack   []openSpan
	nextID  int32
	labels  []string
	selfNS  [numKinds]int64
	count   [numKinds]int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(k spanKind, label string) {
	li := int32(-1)
	if label != "" {
		li = int32(len(t.labels))
		t.labels = append(t.labels, label)
	}
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, label: li, kind: k, start: int64(time.Since(t.epoch))})
}

// end closes the innermost open span and returns its self time in ns.
func (t *tracer) end() int64 { return t.endAt(int64(time.Since(t.epoch))) }

// swap closes the innermost open span and opens one of kind k at the same
// instant, saving a clock read on the per-call path. It returns the closed
// span's self time in ns.
func (t *tracer) swap(k spanKind) int64 {
	now := int64(time.Since(t.epoch))
	self := t.endAt(now)
	t.nextID++
	t.stack = append(t.stack, openSpan{id: t.nextID, label: -1, kind: k, start: now})
	return self
}

func (t *tracer) endAt(now int64) int64 {
	top := len(t.stack) - 1
	o := t.stack[top]
	t.stack = t.stack[:top]
	dur := now - o.start
	self := dur - o.child
	var parent int32
	if top > 0 {
		t.stack[top-1].child += dur
		parent = t.stack[top-1].id
	}
	t.selfNS[o.kind] += self
	t.count[o.kind]++
	if o.kind <= kindRun || len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{id: o.id, parent: parent, kind: o.kind, label: o.label, start: o.start, end: now})
	} else {
		t.dropped++
	}
	return self
}

// writeChrome writes the kept spans as Chrome trace-event JSON, which
// ui.perfetto.dev and chrome://tracing open directly.
func (t *tracer) writeChrome(path string, env map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","otherData":`)
	other, err := json.Marshal(map[string]any{"env": env, "dropped_spans": t.dropped})
	if err != nil {
		f.Close()
		return err
	}
	w.Write(other)
	fmt.Fprint(w, `,"traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name := kindNames[s.kind]
		if s.label >= 0 {
			name = t.labels[s.label]
		}
		ev := event{
			Name: name, Cat: kindNames[s.kind], Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// schedLayer accumulates what the scheduler decorator measures.
type schedLayer struct {
	calls, rebalanceCalls int64
	steadyNS, rebalanceNS int64
	policyNS              map[string]int64
	// steady holds the self time of every steady call, in µs.
	steady *stats.QuantileSketch
	// dispatchWait holds, per TaskFinished call, the engine time from the
	// block's ExecEnd to the call's entry, in µs. It is 0 on the simulation
	// engine, where delivery is a function call at the completion instant.
	dispatchWait *stats.QuantileSketch
}

func newSchedLayer() *schedLayer {
	return &schedLayer{
		policyNS:     map[string]int64{},
		steady:       stats.NewQuantileSketch(),
		dispatchWait: stats.NewQuantileSketch(),
	}
}

// timedScheduler decorates a starpu.Scheduler with spans around Start and
// TaskFinished. It forwards Stats, so Report.SchedulerStats and
// Report.SolverStats are the same as without it.
type timedScheduler struct {
	inner  starpu.Scheduler
	stats  starpu.StatsReporter // nil when the policy reports no counters
	tr     *tracer
	layer  *schedLayer
	policy string
	// classify is set when the policy counts fits or solves; fits and
	// solves are then its counters after the previous call, and a call that
	// moves either is a rebalance call. Every other call is steady.
	classify     bool
	fits, solves float64
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Stats() map[string]float64 {
	if t.stats == nil {
		return nil
	}
	return t.stats.Stats()
}

func (t *timedScheduler) Start(s *starpu.Session) {
	t.tr.begin(kindStart, "")
	t.inner.Start(s)
	self := t.tr.swap(kindBench)
	if t.stats != nil {
		st := t.stats.Stats()
		_, f := st["fits"]
		_, v := st["solves"]
		t.classify = f || v
	}
	t.account(self)
	t.tr.end()
}

func (t *timedScheduler) TaskFinished(s *starpu.Session, rec starpu.TaskRecord) {
	wait := s.Now() - rec.ExecEnd
	t.tr.begin(kindTaskFinished, "")
	t.inner.TaskFinished(s, rec)
	self := t.tr.swap(kindBench)
	t.layer.dispatchWait.Observe(wait * 1e6)
	t.account(self)
	t.tr.end()
}

// account classifies one call. It runs inside a bench span, so the Stats
// call it makes is not charged to the engine.
func (t *timedScheduler) account(selfNS int64) {
	l := t.layer
	l.calls++
	l.policyNS[t.policy] += selfNS
	if t.classify {
		st := t.stats.Stats()
		if f, v := st["fits"], st["solves"]; f != t.fits || v != t.solves {
			t.fits, t.solves = f, v
			l.rebalanceCalls++
			l.rebalanceNS += selfNS
			return
		}
	}
	l.steadyNS += selfNS
	l.steady.Observe(float64(selfNS) / 1e3)
}

// timedSink decorates a telemetry.Sink with a span around every Consume.
type timedSink struct {
	inner telemetry.Sink
	tr    *tracer
}

func (t timedSink) Consume(ev telemetry.Event) {
	t.tr.begin(kindConsume, "")
	t.inner.Consume(ev)
	t.tr.end()
}

// rtNames are the runtime/metrics samples a meter reads around each timed
// region.
var rtNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
}

func readRT(s []metrics.Sample) rtSnap {
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

// meter splits one iteration's host time into set-up (building clusters,
// apps, kernels and sessions) and the timed region (running sessions), and
// counts the runtime's allocation and GC work inside the timed region
// only. With a tracer it also opens a run span around every timed call and
// wraps schedulers and sinks in their timing decorators.
type meter struct {
	tr    *tracer // nil when the iteration is untraced
	sched *schedLayer

	setup, wall time.Duration
	rt          rtSnap // deltas over the timed regions
	sample      []metrics.Sample
}

func newMeter(tr *tracer, sl *schedLayer) *meter {
	m := &meter{tr: tr, sched: sl, sample: make([]metrics.Sample, len(rtNames))}
	for i, n := range rtNames {
		m.sample[i].Name = n
	}
	return m
}

// build runs fn as set-up.
func (m *meter) build(fn func() error) error {
	t := time.Now()
	err := fn()
	m.setup += time.Since(t)
	return err
}

// timed runs fn inside the timed region, under a run span named label when
// traced.
func (m *meter) timed(label string, fn func() error) error {
	a := readRT(m.sample)
	if m.tr != nil {
		m.tr.begin(kindRun, label)
	}
	t := time.Now()
	err := fn()
	m.wall += time.Since(t)
	if m.tr != nil {
		m.tr.end()
	}
	b := readRT(m.sample)
	m.rt.allocBytes += b.allocBytes - a.allocBytes
	m.rt.gcCycles += b.gcCycles - a.gcCycles
	m.rt.gcCPU += b.gcCPU - a.gcCPU
	return err
}

// scheduler returns s, wrapped in the timing decorator when traced.
func (m *meter) scheduler(s starpu.Scheduler) starpu.Scheduler {
	if m.tr == nil {
		return s
	}
	sr, _ := s.(starpu.StatsReporter)
	return &timedScheduler{inner: s, stats: sr, tr: m.tr, layer: m.sched, policy: s.Name()}
}

// sink returns s, wrapped in the timing decorator when traced.
func (m *meter) sink(s telemetry.Sink) telemetry.Sink {
	if m.tr == nil {
		return s
	}
	return timedSink{inner: s, tr: m.tr}
}
