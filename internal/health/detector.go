// Package health is the deterministic heartbeat/membership layer of the
// runtime: a failure detector that turns heartbeat arrival times into
// suspicion decisions, and a lease table that fences stale work so suspicion
// being *wrong* never violates exactly-once delivery.
//
// Both pieces are pure data structures driven entirely by caller-supplied
// times — no wall clock, no goroutines — so the simulated and live engines
// share one implementation and the simulated one is bit-reproducible.
package health

import "math"

// DetectorKind selects the suspicion rule.
type DetectorKind uint8

const (
	// Deadline is the cheap rung: suspect a unit after a fixed silence.
	Deadline DetectorKind = iota
	// PhiAccrual is the adaptive rung: model heartbeat inter-arrival times
	// as a normal distribution and suspect when the accrued suspicion level
	// phi = -log10 P(a heartbeat arrives this late) crosses a threshold.
	PhiAccrual
)

// Config parameterizes a Detector. The zero value is not valid; callers fill
// every field (starpu.HealthPolicy.normalized supplies the defaults).
type Config struct {
	Kind            DetectorKind
	IntervalSeconds float64 // expected heartbeat period
	PhiThreshold    float64 // suspicion level for PhiAccrual
	// TimeoutSeconds is the fixed silence for Deadline, and the bootstrap
	// timeout PhiAccrual applies while a unit's window has fewer than
	// MinSamples intervals.
	TimeoutSeconds float64
}

const (
	// WindowSize is how many inter-arrival samples the detector keeps per
	// unit.
	WindowSize = 32
	// MinSamples is how many intervals a unit's window needs before the
	// phi rules trust its fitted distribution.
	MinSamples = 3
)

// minStd returns the floor applied to the window's standard deviation. A
// perfectly periodic heartbeat stream (the simulator's) has zero variance,
// which would make phi infinitely sharp; the floor — 10% of the expected
// interval, the conventional choice in phi-accrual deployments — keeps the
// crossing time a finite, configurable margin past the mean.
func (c Config) minStd() float64 {
	return math.Max(1e-6, 0.1*c.IntervalSeconds)
}

// unitState is one unit's sliding window of heartbeat inter-arrival times,
// with incrementally maintained first and second moments.
type unitState struct {
	last  float64 // time of the most recent heartbeat
	win   [WindowSize]float64
	next  int // ring index of the slot written next
	n     int // samples currently in the window
	sum   float64
	sumsq float64
}

// Detector is a per-unit heartbeat failure detector. It is not safe for
// concurrent use; both engines drive it from their single event/drive
// goroutine.
type Detector struct {
	cfg   Config
	units []unitState
}

// NewDetector builds a detector for n units, all considered heard-from at
// time 0 (session start counts as a heartbeat).
func NewDetector(cfg Config, n int) *Detector {
	return &Detector{cfg: cfg, units: make([]unitState, n)}
}

// Heartbeat records a heartbeat from unit u at time t. Arrivals at or before
// the previous one (a duplicate delivered in the same event batch) only
// refresh liveness; they contribute no interval sample.
func (d *Detector) Heartbeat(u int, t float64) {
	s := &d.units[u]
	dt := t - s.last
	s.last = t
	if dt <= 0 {
		return
	}
	if s.n == WindowSize {
		old := s.win[s.next]
		s.sum -= old
		s.sumsq -= old * old
	} else {
		s.n++
	}
	s.win[s.next] = dt
	s.sum += dt
	s.sumsq += dt * dt
	s.next = (s.next + 1) % WindowSize
}

// LastSeen returns the time of unit u's most recent heartbeat.
func (d *Detector) LastSeen(u int) float64 { return d.units[u].last }

// bootstrapping reports whether unit u's window is still too thin to trust:
// until MinSamples intervals arrive, the phi rules fall back to the fixed
// TimeoutSeconds silence — the behavior HealthPolicy documents — instead of
// the fitted distribution.
func (d *Detector) bootstrapping(u int) bool {
	return d.units[u].n < MinSamples
}

// stats returns the window's mean and (floored) standard deviation, falling
// back to the configured interval until MinSamples arrivals have been seen
// (the phi paths check bootstrapping first, so the fallback is only a guard
// against division by a zero-sample window).
func (d *Detector) stats(u int) (mean, std float64) {
	s := &d.units[u]
	if s.n < MinSamples {
		return d.cfg.IntervalSeconds, d.cfg.minStd()
	}
	mean = s.sum / float64(s.n)
	variance := s.sumsq/float64(s.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Max(math.Sqrt(variance), d.cfg.minStd())
}

// Phi returns the accrued suspicion level for unit u at time now:
// -log10 P(a heartbeat arrives later than now given the window). For the
// Deadline kind it returns 0 before the timeout and +Inf after, so callers
// can treat both kinds uniformly.
func (d *Detector) Phi(u int, now float64) float64 {
	silence := now - d.units[u].last
	if d.cfg.Kind == Deadline || d.bootstrapping(u) {
		if silence >= d.cfg.TimeoutSeconds {
			return math.Inf(1)
		}
		return 0
	}
	mean, std := d.stats(u)
	p := tailProb((silence - mean) / std)
	if p <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(p)
}

// SuspectAfter returns the silence (seconds since the last heartbeat) at
// which unit u crosses the suspicion threshold under the current window.
func (d *Detector) SuspectAfter(u int) float64 {
	if d.cfg.Kind == Deadline || d.bootstrapping(u) {
		return d.cfg.TimeoutSeconds
	}
	mean, std := d.stats(u)
	return mean + std*invNormTail(math.Pow(10, -d.cfg.PhiThreshold))
}

// SuspectAt returns the absolute time at which unit u becomes suspect if no
// further heartbeat arrives. It is the detector's invertibility contract:
// the simulator schedules exactly one check event at this instant per
// arrival instead of polling.
func (d *Detector) SuspectAt(u int) float64 {
	return d.units[u].last + d.SuspectAfter(u)
}

// Suspect reports whether unit u has crossed the threshold at time now.
func (d *Detector) Suspect(u int, now float64) bool {
	return now >= d.SuspectAt(u)
}
