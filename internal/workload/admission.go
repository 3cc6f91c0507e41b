package workload

import "math"

// Decision is the admission controller's verdict on one offered request.
type Decision uint8

// The three verdicts.
const (
	// Admit dispatches the request immediately.
	Admit Decision = iota
	// Defer parks the request in the bounded wait queue; it is admitted
	// later, in FIFO order, as capacity frees up (Controller.Dispatch).
	Defer
	// Shed rejects the request outright: the queue is full, or the app's
	// live p99 already violates its SLO and taking more load would only
	// deepen the violation (load shedding).
	Shed
)

// String names the decision for telemetry and tables.
func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case Defer:
		return "defer"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// AdmissionPolicy bounds an open-system session's concurrent load. The zero
// value normalizes to the documented defaults; Disabled turns the
// controller into a pass-through (every request admitted, nothing queued or
// shed) — the "admission off" ablation that lets overload experiments show
// unbounded p99 growth next to the controlled run.
type AdmissionPolicy struct {
	// MaxInFlight caps admitted-but-unfinished blocks across the session.
	// <= 0 means the default 64.
	MaxInFlight int
	// MaxQueue caps requests waiting in the deferred queue; an arrival that
	// finds it full is shed. <= 0 means the default 256.
	MaxQueue int
	// Disabled bypasses every bound: all requests admit immediately.
	Disabled bool
}

// Normalized returns a copy with defaults filled in.
func (p AdmissionPolicy) Normalized() AdmissionPolicy {
	q := p
	if q.MaxInFlight <= 0 {
		q.MaxInFlight = 64
	}
	if q.MaxQueue <= 0 {
		q.MaxQueue = 256
	}
	return q
}

// Controller applies an AdmissionPolicy to a request stream and keeps the
// conservation accounts the fuzz suite pins: at every point,
//
//	Offered() == Admitted() + Shed() + Deferred()
//
// where Deferred is the requests currently waiting (the session's queue
// length — the session defers exactly when Offer says Defer and calls
// Dispatch when it pops). All methods are allocation-free and O(1); the
// controller is not safe for concurrent use (sessions drive it from the
// single scheduling goroutine).
type Controller struct {
	pol                     AdmissionPolicy
	offered, admitted, shed int64
	deferred                int64 // currently queued
	deferredTotal           int64 // ever queued
}

// NewController builds a controller over the normalized policy.
func NewController(p AdmissionPolicy) *Controller {
	return &Controller{pol: p.Normalized()}
}

// Policy returns the normalized policy in force.
func (c *Controller) Policy() AdmissionPolicy { return c.pol }

// Offer records one arriving request and decides its fate. inflight is the
// session's admitted-but-unfinished block count; p99 is the app's live p99
// latency in seconds (NaN when no signal yet) and slo its target (<= 0
// disables SLO shedding). Non-finite p99 never sheds — absence of signal is
// not evidence of overload.
func (c *Controller) Offer(inflight int, p99, slo float64) Decision {
	c.offered++
	if c.pol.Disabled {
		c.admitted++
		return Admit
	}
	if slo > 0 && !math.IsNaN(p99) && !math.IsInf(p99, 0) && p99 > slo {
		c.shed++
		return Shed
	}
	if inflight < c.pol.MaxInFlight && c.deferred == 0 {
		c.admitted++
		return Admit
	}
	if c.deferred < int64(c.pol.MaxQueue) {
		c.deferred++
		c.deferredTotal++
		return Defer
	}
	c.shed++
	return Shed
}

// Demote converts the most recent Admit into a Defer (queue room permitting)
// or a Shed: the session calls it when an admitted request turns out to have
// no live unit to run on. It returns the resulting decision.
func (c *Controller) Demote() Decision {
	if c.admitted == 0 {
		return Shed // nothing to demote; counters untouched
	}
	c.admitted--
	if !c.pol.Disabled && c.deferred >= int64(c.pol.MaxQueue) {
		c.shed++
		return Shed
	}
	c.deferred++
	c.deferredTotal++
	return Defer
}

// CanDispatch reports whether the policy allows dispatching a queued
// request given the current in-flight count.
func (c *Controller) CanDispatch(inflight int) bool {
	return c.pol.Disabled || inflight < c.pol.MaxInFlight
}

// Dispatch moves the head queued request to admitted (it was popped and
// launched). It does nothing when the queue is empty.
func (c *Controller) Dispatch() {
	if c.deferred > 0 {
		c.deferred--
		c.admitted++
	}
}

// Offered is the total requests seen.
func (c *Controller) Offered() int64 { return c.offered }

// Admitted is the requests dispatched (immediately or from the queue).
func (c *Controller) Admitted() int64 { return c.admitted }

// Shed is the requests rejected.
func (c *Controller) Shed() int64 { return c.shed }

// Deferred is the requests currently waiting in the queue.
func (c *Controller) Deferred() int64 { return c.deferred }

// DeferredTotal is the requests that ever waited in the queue.
func (c *Controller) DeferredTotal() int64 { return c.deferredTotal }
