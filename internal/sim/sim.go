// Package sim implements the discrete-event simulation kernel that stands in
// for the paper's physical testbed. It provides a virtual clock, an event
// queue ordered by (time, sequence), and FIFO resources used to model
// serialized communication links (Ethernet NICs, PCIe buses).
//
// The kernel is deliberately single-threaded: determinism matters more than
// host parallelism here, because every experiment must be exactly
// reproducible from its seed.
//
// The event queue is a value-typed 4-ary min-heap over []event. Events are
// stored by value and the backing array is reused across pushes and pops, so
// steady-state scheduling and dispatch perform no heap allocations (see
// TestAtStepZeroAlloc); a 4-ary layout halves the tree depth of a binary
// heap and keeps sift-down comparisons within one cache line of siblings.
package sim

import (
	"fmt"
	"math"
)

// Handler is the closure-free scheduling hook: Fire is invoked when the
// scheduled time arrives. Hot paths (the starpu engines) pass pooled
// Handler implementations to Schedule instead of closures to At, keeping
// per-event cost allocation-free; storing a pointer in the interface does
// not allocate.
type Handler interface {
	Fire()
}

// handlerFunc adapts a plain func to Handler. A func value is one pointer
// word, so storing it in the interface does not allocate.
type handlerFunc func()

func (f handlerFunc) Fire() { f() }

// Engine is a discrete-event simulator instance.
type Engine struct {
	now    float64
	seq    uint64
	queue  []event // 4-ary min-heap ordered by (t, seq)
	nSteps uint64
}

// New returns an empty simulation engine at time 0.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a model bug, and silently clamping would mask
// causality violations. NaN and +Inf times panic for the same reason: a NaN
// comparison would corrupt the heap order, and a +Inf event could never
// causally fire, silently leaking its callback.
func (e *Engine) At(t float64, fn func()) { e.Schedule(t, handlerFunc(fn)) }

// Schedule is At for pooled handlers: h.Fire() runs at absolute virtual
// time t. Unlike At, which typically costs one closure allocation at the
// caller, Schedule with a reused Handler is allocation-free end to end.
func (e *Engine) Schedule(t float64, h Handler) {
	e.check(t)
	e.seq++
	e.push(event{t: t, seq: e.seq, h: h})
}

func (e *Engine) check(t float64) {
	if math.IsNaN(t) {
		panic("sim: event scheduled at NaN time")
	}
	if math.IsInf(t, 1) {
		panic("sim: event scheduled at +Inf time can never fire")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past: t=%g now=%g", t, e.now))
	}
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	e.At(e.now+d, fn)
}

// Run executes events until the queue is empty and returns the final time.
func (e *Engine) Run() float64 {
	for len(e.queue) > 0 {
		e.step()
	}
	return e.now
}

// RunUntil executes events with time ≤ deadline; later events stay queued.
// It returns the current time when it stops.
func (e *Engine) RunUntil(deadline float64) float64 {
	for len(e.queue) > 0 && e.queue[0].t <= deadline {
		e.step()
	}
	if e.now < deadline && len(e.queue) == 0 {
		return e.now
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// NextTime returns the time of the earliest queued event; ok is false when
// the queue is empty.
func (e *Engine) NextTime() (t float64, ok bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].t, true
}

func (e *Engine) step() {
	ev := e.queue[0]
	e.pop()
	if ev.t < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.t
	e.nSteps++
	ev.h.Fire()
}

type event struct {
	t   float64
	seq uint64 // tiebreaker: FIFO among simultaneous events
	h   Handler
}

// before is the heap order: earlier time first, FIFO on ties.
func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// arity is the heap branching factor.
const arity = 4

// push appends ev and sifts it up. The append reuses the slice's backing
// array; after the queue's high-water mark is reached, pushes are
// allocation-free.
func (e *Engine) push(ev event) {
	e.queue = append(e.queue, ev)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes the minimum (queue[0]). The vacated tail slot is zeroed so
// the backing array does not pin dead callbacks, then the slice is shrunk
// in place, keeping its capacity for reuse.
func (e *Engine) pop() {
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = event{}
	e.queue = e.queue[:n]
	if n == 0 {
		return
	}
	// Sift last down from the root.
	q := e.queue
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		end := c + arity
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
}

// Grow pre-sizes the event queue for at least n simultaneous pending
// events, so a session with a known fan-out reaches the zero-allocation
// steady state immediately.
func (e *Engine) Grow(n int) {
	if cap(e.queue) < n {
		q := make([]event, len(e.queue), n)
		copy(q, e.queue)
		e.queue = q
	}
}
