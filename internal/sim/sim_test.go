package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(2, func() { order = append(order, 2) })
	e.At(1, func() { order = append(order, 1) })
	e.At(3, func() { order = append(order, 3) })
	end := e.Run()
	if end != 3 {
		t.Errorf("final time = %g, want 3", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	e := New()
	var hits []float64
	e.After(1, func() {
		hits = append(hits, e.Now())
		e.After(2, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Errorf("hits = %v", hits)
	}
	if e.Steps() != 2 {
		t.Errorf("Steps = %d, want 2", e.Steps())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(1, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	New().After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []float64
	for _, tm := range []float64{1, 2, 5} {
		tm := tm
		e.At(tm, func() { fired = append(fired, tm) })
	}
	e.RunUntil(3)
	if len(fired) != 2 {
		t.Errorf("fired = %v, want events at 1,2 only", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 3 {
		t.Errorf("remaining event did not fire: %v", fired)
	}
}

func TestResourceSerialization(t *testing.T) {
	e := New()
	r := NewResource(e, "link")
	var ends []float64
	// Three overlapping 10-second holds requested at t=0 serialize.
	for i := 0; i < 3; i++ {
		r.Acquire(10, func(s, end float64) { ends = append(ends, end) })
	}
	e.Run()
	if len(ends) != 3 || ends[0] != 10 || ends[1] != 20 || ends[2] != 30 {
		t.Errorf("ends = %v, want [10 20 30]", ends)
	}
	if r.BusySeconds() != 30 {
		t.Errorf("BusySeconds = %g, want 30", r.BusySeconds())
	}
}

func TestResourceAcquireAfter(t *testing.T) {
	e := New()
	r := NewResource(e, "pcie")
	s1, e1 := r.AcquireAfter(5, 2, nil)
	if s1 != 5 || e1 != 7 {
		t.Errorf("first = [%g,%g], want [5,7]", s1, e1)
	}
	// Earlier request still queues after the existing reservation.
	s2, e2 := r.AcquireAfter(0, 1, nil)
	if s2 != 7 || e2 != 8 {
		t.Errorf("second = [%g,%g], want [7,8]", s2, e2)
	}
	if r.FreeAt() != 8 {
		t.Errorf("FreeAt = %g", r.FreeAt())
	}
	if r.Name() != "pcie" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestResourceNegativeHoldPanics(t *testing.T) {
	e := New()
	r := NewResource(e, "x")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative hold")
		}
	}()
	r.Acquire(-1, nil)
}

// Property: for any set of holds, resource reservations never overlap and
// respect request order.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(holds []uint8) bool {
		e := New()
		r := NewResource(e, "x")
		prevEnd := 0.0
		for _, h := range holds {
			s, end := r.Acquire(float64(h), nil)
			if s < prevEnd || end < s {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: virtual time is non-decreasing across arbitrary event chains.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := New()
		last := -1.0
		ok := true
		var schedule func(i int)
		schedule = func(i int) {
			if i >= len(delays) {
				return
			}
			e.After(float64(delays[i]), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				schedule(i + 1)
			})
		}
		schedule(0)
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNextTime: NextTime reports the earliest queued event without firing
// it, and nothing once the queue drains.
func TestNextTime(t *testing.T) {
	e := New()
	if _, ok := e.NextTime(); ok {
		t.Fatal("empty queue reports a next event")
	}
	e.At(3, func() {})
	e.At(1, func() {})
	if at, ok := e.NextTime(); !ok || at != 1 {
		t.Fatalf("NextTime = %g, %v; want 1, true", at, ok)
	}
	e.RunUntil(2)
	if at, ok := e.NextTime(); !ok || at != 3 || e.Pending() != 1 {
		t.Fatalf("after RunUntil(2): NextTime = %g, %v with %d pending; want 3, true, 1", at, ok, e.Pending())
	}
	e.Run()
	if _, ok := e.NextTime(); ok {
		t.Fatal("drained queue reports a next event")
	}
}
