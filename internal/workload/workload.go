// Package workload generates seeded, deterministic arrival streams for the
// open-system service mode (docs/SERVICE.md). The paper evaluates PLB-HeC
// closed-system — a fixed block set in, a makespan out — but the target
// deployment is a service under continuous traffic, where throughput and
// per-request latency are competing objectives. This package supplies the
// request side of that picture: four arrival models (Poisson, MMPP/bursty,
// diurnal, replayed trace), all driven by the repo's SplitMix64-seeded RNG
// so the same Spec always produces the same Schedule bit-for-bit, and the
// admission controller (admission.go) that decides admit/defer/shed per
// request against a live p99-vs-SLO signal.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"plbhec/internal/stats"
)

// Kind selects an arrival model.
type Kind string

// The four arrival models.
const (
	// Poisson is a homogeneous Poisson process at Rate arrivals/second:
	// independent exponential inter-arrival gaps, the memoryless baseline.
	Poisson Kind = "poisson"
	// Bursty is a two-state Markov-modulated Poisson process: the stream
	// alternates between a calm state at Rate and a burst state at
	// BurstRate, with exponentially distributed state dwell times of mean
	// BurstDwell seconds each. Index of dispersion > 1: traffic clumps.
	Bursty Kind = "bursty"
	// Diurnal is a nonhomogeneous Poisson process whose rate follows a
	// raised-cosine day curve between Rate (trough) and BurstRate (peak)
	// with period Period seconds, sampled by thinning. RateAt exposes the
	// instantaneous rate; the curve wraps exactly at every period boundary.
	Diurnal Kind = "diurnal"
	// Trace replays Spec.Trace verbatim (clamped to the horizon). With no
	// trace attached it degenerates to a deterministic evenly-spaced stream
	// at Rate — a stand-in clients can diff generated schedules against.
	Trace Kind = "trace"
)

// MaxArrivals bounds the arrivals one Generate call materializes, so a
// hostile Spec (fuzzing decodes arbitrary bytes into rates) cannot allocate
// unboundedly. Generation stops at the cap; Validate accepts schedules at it.
const MaxArrivals = 1 << 17

// Arrival is one request: a submission time (engine seconds from the start
// of the stream) and the work units the request carries.
type Arrival struct {
	Time  float64
	Units int64
}

// Schedule is a materialized arrival stream: every request of one app over
// the horizon, in nondecreasing time order.
type Schedule struct {
	Name     string
	Horizon  float64
	Arrivals []Arrival
}

// Validate checks the schedule's structural invariants: finite
// nondecreasing times within [0, Horizon], at least one unit per request,
// and at most MaxArrivals requests.
func (s Schedule) Validate() error {
	if !(s.Horizon >= 0) || math.IsInf(s.Horizon, 0) {
		return fmt.Errorf("workload: %q: horizon %v must be finite and >= 0", s.Name, s.Horizon)
	}
	if len(s.Arrivals) > MaxArrivals {
		return fmt.Errorf("workload: %q: %d arrivals exceed MaxArrivals %d",
			s.Name, len(s.Arrivals), MaxArrivals)
	}
	prev := 0.0
	for i, a := range s.Arrivals {
		if math.IsNaN(a.Time) || math.IsInf(a.Time, 0) {
			return fmt.Errorf("workload: %q: arrival %d has non-finite time", s.Name, i)
		}
		if a.Time < prev {
			return fmt.Errorf("workload: %q: arrival %d at t=%v before t=%v", s.Name, i, a.Time, prev)
		}
		if a.Time < 0 || a.Time > s.Horizon {
			return fmt.Errorf("workload: %q: arrival %d at t=%v outside [0, %v]",
				s.Name, i, a.Time, s.Horizon)
		}
		if a.Units < 1 {
			return fmt.Errorf("workload: %q: arrival %d carries %d units (< 1)", s.Name, i, a.Units)
		}
		prev = a.Time
	}
	return nil
}

// Merge combines two schedules into one stream over the larger horizon,
// stably ordered by time (ties keep a's arrivals first). Superposing two
// Poisson streams this way is distributionally one Poisson stream at the
// summed rate — the metamorphic property the test suite pins with a KS check.
func Merge(a, b Schedule) Schedule {
	out := Schedule{
		Name:    a.Name + "+" + b.Name,
		Horizon: math.Max(a.Horizon, b.Horizon),
	}
	out.Arrivals = make([]Arrival, 0, len(a.Arrivals)+len(b.Arrivals))
	i, j := 0, 0
	for i < len(a.Arrivals) && j < len(b.Arrivals) {
		if a.Arrivals[i].Time <= b.Arrivals[j].Time {
			out.Arrivals = append(out.Arrivals, a.Arrivals[i])
			i++
		} else {
			out.Arrivals = append(out.Arrivals, b.Arrivals[j])
			j++
		}
	}
	out.Arrivals = append(out.Arrivals, a.Arrivals[i:]...)
	out.Arrivals = append(out.Arrivals, b.Arrivals[j:]...)
	return out
}

// Spec is a seeded arrival-stream description. The zero value is not
// directly usable; Normalized fills every missing field with a documented
// default, and Generate normalizes internally, so any Spec — including one
// decoded from arbitrary fuzz bytes — produces a valid Schedule.
type Spec struct {
	// Kind selects the model; unknown kinds normalize to Poisson.
	Kind Kind
	// Rate is the mean arrival rate in requests/second: the whole story for
	// Poisson, the calm-state rate for Bursty, the trough rate for Diurnal,
	// the spacing for a trace stand-in. <= 0 or non-finite means 1.
	Rate float64
	// BurstRate is the elevated rate: the burst state (Bursty) or the daily
	// peak (Diurnal). <= Rate or non-finite means 5×Rate (Bursty) / 3×Rate
	// (Diurnal).
	BurstRate float64
	// BurstDwell is the mean seconds spent in each MMPP state. <= 0 or
	// non-finite means 1.
	BurstDwell float64
	// Period is the diurnal cycle length in seconds. <= 0 or non-finite
	// means 10.
	Period float64
	// Units is the work units each request carries. <= 0 means 1.
	Units int64
	// Seed drives the stream's RNG; equal seeds reproduce the stream
	// bit-for-bit.
	Seed int64
	// Trace, when non-empty with Kind == Trace, is replayed verbatim
	// (sorted, clamped to the horizon, units defaulted from Units).
	Trace []Arrival
}

// Normalized returns a copy with every missing or invalid field replaced by
// its documented default, so generation never consults a half-filled spec.
func (sp Spec) Normalized() Spec {
	q := sp
	switch q.Kind {
	case Poisson, Bursty, Diurnal, Trace:
	default:
		q.Kind = Poisson
	}
	if !(q.Rate > 0) || math.IsInf(q.Rate, 0) {
		q.Rate = 1
	}
	if q.Rate > 1e6 {
		q.Rate = 1e6
	}
	if !(q.BurstRate > q.Rate) || math.IsInf(q.BurstRate, 0) {
		if q.Kind == Diurnal {
			q.BurstRate = 3 * q.Rate
		} else {
			q.BurstRate = 5 * q.Rate
		}
	}
	if q.BurstRate > 1e6 {
		q.BurstRate = 1e6
	}
	if !(q.BurstDwell > 0) || math.IsInf(q.BurstDwell, 0) {
		q.BurstDwell = 1
	}
	if !(q.Period > 0) || math.IsInf(q.Period, 0) {
		q.Period = 10
	}
	if q.Units < 1 {
		q.Units = 1
	}
	return q
}

// RateAt returns the instantaneous arrival rate at time t for the
// normalized spec. For Diurnal it is the raised-cosine day curve — exactly
// periodic, RateAt(t) == RateAt(t+Period) — which the wraparound property
// test asserts. For the other kinds it is the (mean) stationary rate.
func (sp Spec) RateAt(t float64) float64 {
	q := sp.Normalized()
	switch q.Kind {
	case Diurnal:
		phase := math.Mod(t, q.Period)
		if phase < 0 {
			phase += q.Period
		}
		return q.Rate + (q.BurstRate-q.Rate)*0.5*(1-math.Cos(2*math.Pi*phase/q.Period))
	case Bursty:
		return 0.5 * (q.Rate + q.BurstRate) // stationary mean of the 2-state MMPP
	default:
		return q.Rate
	}
}

// Generate materializes the stream over [0, horizon) seconds. The output is
// a pure function of (spec, horizon): same inputs, bit-identical schedule.
// A non-finite or negative horizon yields an empty schedule.
func (sp Spec) Generate(horizon float64) Schedule {
	q := sp.Normalized()
	out := Schedule{Name: string(q.Kind), Horizon: horizon}
	if !(horizon > 0) || math.IsInf(horizon, 0) {
		out.Horizon = 0
		return out
	}
	switch q.Kind {
	case Trace:
		q.generateTrace(&out, horizon)
	case Bursty:
		q.generateBursty(&out, horizon)
	case Diurnal:
		q.generateDiurnal(&out, horizon)
	default:
		q.generatePoisson(&out, horizon)
	}
	return out
}

// expGap draws an exponential inter-arrival gap of the given rate. 1-U is
// in (0, 1], so the log is finite and the gap strictly positive.
func expGap(rng *stats.RNG, rate float64) float64 {
	return -math.Log(1-rng.Float64()) / rate
}

// arrivalsCap sizes a stream whose mean request count is mean: the mean
// plus four standard deviations of a Poisson count, capped at MaxArrivals,
// so a generator almost never grows its slice.
func arrivalsCap(mean float64) int {
	return int(min(math.Ceil(mean+4*math.Sqrt(mean))+16, MaxArrivals))
}

func (sp Spec) generatePoisson(out *Schedule, horizon float64) {
	out.Arrivals = make([]Arrival, 0, arrivalsCap(sp.Rate*horizon))
	rng := stats.NewRNG(sp.Seed)
	t := expGap(rng, sp.Rate)
	for t < horizon && len(out.Arrivals) < MaxArrivals {
		out.Arrivals = append(out.Arrivals, Arrival{Time: t, Units: sp.Units})
		t += expGap(rng, sp.Rate)
	}
}

func (sp Spec) generateBursty(out *Schedule, horizon float64) {
	rng := stats.NewRNG(sp.Seed)
	burst := false
	t := 0.0
	stateEnd := expGap(rng, 1/sp.BurstDwell)
	for len(out.Arrivals) < MaxArrivals {
		rate := sp.Rate
		if burst {
			rate = sp.BurstRate
		}
		next := t + expGap(rng, rate)
		if next >= stateEnd {
			// The state flips before the candidate arrival: jump to the
			// boundary and redraw — exponential gaps are memoryless, so
			// discarding the overshoot keeps each state's process exact.
			t = stateEnd
			if t >= horizon {
				return
			}
			burst = !burst
			stateEnd = t + expGap(rng, 1/sp.BurstDwell)
			continue
		}
		if next >= horizon {
			return
		}
		t = next
		out.Arrivals = append(out.Arrivals, Arrival{Time: t, Units: sp.Units})
	}
}

func (sp Spec) generateDiurnal(out *Schedule, horizon float64) {
	// Thinning (Lewis-Shedler): candidates at the peak rate, each kept with
	// probability rate(t)/peak — an exact nonhomogeneous Poisson sampler.
	rng := stats.NewRNG(sp.Seed)
	peak := sp.BurstRate
	t := expGap(rng, peak)
	for t < horizon && len(out.Arrivals) < MaxArrivals {
		if rng.Float64()*peak < sp.RateAt(t) {
			out.Arrivals = append(out.Arrivals, Arrival{Time: t, Units: sp.Units})
		}
		t += expGap(rng, peak)
	}
}

func (sp Spec) generateTrace(out *Schedule, horizon float64) {
	if len(sp.Trace) == 0 {
		// No trace attached: a deterministic evenly-spaced stream at Rate,
		// offset half a gap so the first request is not at t=0.
		out.Arrivals = make([]Arrival, 0, arrivalsCap(sp.Rate*horizon))
		gap := 1 / sp.Rate
		t := 0.5 * gap
		for t < horizon && len(out.Arrivals) < MaxArrivals {
			out.Arrivals = append(out.Arrivals, Arrival{Time: t, Units: sp.Units})
			t += gap
		}
		return
	}
	for _, a := range sp.Trace {
		if math.IsNaN(a.Time) || a.Time < 0 || a.Time >= horizon {
			continue
		}
		if a.Units < 1 {
			a.Units = sp.Units
		}
		out.Arrivals = append(out.Arrivals, a)
		if len(out.Arrivals) == MaxArrivals {
			break
		}
	}
	slices.SortStableFunc(out.Arrivals, func(a, b Arrival) int {
		return cmp.Compare(a.Time, b.Time)
	})
}
