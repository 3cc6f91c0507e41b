package workload

import (
	"math"
	"testing"
)

// FuzzArrivalSchedule drives arbitrary bytes through the always-valid
// decoder: every input must map to a spec whose generated schedule passes
// Validate, and generation must be deterministic (two calls, identical
// streams). Any counterexample reproduces from the corpus bytes alone.
func FuzzArrivalSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 128, 0, 0, 0, 3, 17})
	f.Add([]byte{1, 255, 255, 10, 0, 63, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 40, 80, 120, 160, 200, 240})
	f.Add([]byte{3, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		sp := FromBytes(data)
		// Horizon from the tail byte, kept short so high-rate specs stay
		// bounded (worst case ~50 r/s × 8 s).
		horizon := 0.5
		if len(data) > 0 {
			horizon += float64(data[len(data)-1]) / 255 * 7.5
		}
		s := sp.Generate(horizon)
		if err := s.Validate(); err != nil {
			t.Fatalf("decoded spec %+v generated invalid schedule: %v", sp, err)
		}
		if s.Horizon != horizon {
			t.Fatalf("schedule horizon %g, want %g", s.Horizon, horizon)
		}
		again := sp.Generate(horizon)
		if len(again.Arrivals) != len(s.Arrivals) {
			t.Fatalf("re-generation changed length: %d vs %d", len(s.Arrivals), len(again.Arrivals))
		}
		for i := range s.Arrivals {
			if s.Arrivals[i] != again.Arrivals[i] {
				t.Fatalf("re-generation diverged at %d: %+v vs %+v", i, s.Arrivals[i], again.Arrivals[i])
			}
		}
	})
}

// FuzzAdmission drives the controller through arbitrary offer / dispatch /
// demote sequences and pins its invariants:
//
//   - conservation: offered == admitted + shed + deferred at every step
//   - capacity: Offer never admits at or past MaxInFlight (unless disabled)
//   - bounded queue: deferred never exceeds MaxQueue while enabled
//     (a Disabled controller's Demote parks without bound by design)
//   - no panic on NaN/±Inf latency signals
func FuzzAdmission(f *testing.F) {
	f.Add([]byte{4, 2, 0, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 1, 0, 255, 254, 253, 128, 64, 32})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		pol := AdmissionPolicy{
			MaxInFlight: int(at(0)) % 8, // 0 exercises the default
			MaxQueue:    int(at(1)) % 8, // 0 exercises the default
			Disabled:    at(2)&1 == 1,
		}
		c := NewController(pol)
		max := c.Policy().MaxInFlight
		maxQ := int64(c.Policy().MaxQueue)

		signals := [6]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 0.05, 5}
		inflight := 0
		for i := 3; i < len(data); i++ {
			op := data[i]
			switch op % 4 {
			case 0, 1: // offer
				p99 := signals[int(op/4)%len(signals)]
				slo := float64(op%3) * 0.1
				if d := c.Offer(inflight, p99, slo); d == Admit {
					if !pol.Disabled && inflight >= max {
						t.Fatalf("admitted past capacity: inflight %d, MaxInFlight %d", inflight, max)
					}
					inflight++
				}
			case 2: // complete + drain queue
				if inflight > 0 {
					inflight--
				}
				if c.Deferred() > 0 && c.CanDispatch(inflight) {
					c.Dispatch()
					inflight++
				}
			case 3: // failed dispatch
				if inflight > 0 {
					inflight--
					c.Demote()
				}
			}
			if c.Offered() != c.Admitted()+c.Shed()+c.Deferred() {
				t.Fatalf("step %d: conservation broken: offered %d != admitted %d + shed %d + deferred %d",
					i, c.Offered(), c.Admitted(), c.Shed(), c.Deferred())
			}
			if !pol.Disabled && c.Deferred() > maxQ {
				t.Fatalf("step %d: queue %d exceeds MaxQueue %d", i, c.Deferred(), maxQ)
			}
			if c.DeferredTotal() < c.Deferred() {
				t.Fatalf("step %d: DeferredTotal %d < Deferred %d", i, c.DeferredTotal(), c.Deferred())
			}
		}
	})
}
