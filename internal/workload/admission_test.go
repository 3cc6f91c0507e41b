package workload

import (
	"math"
	"testing"
)

// conserved checks the controller's conservation law.
func conserved(t *testing.T, c *Controller) {
	t.Helper()
	if c.Offered() != c.Admitted()+c.Shed()+c.Deferred() {
		t.Fatalf("conservation broken: offered %d != admitted %d + shed %d + deferred %d",
			c.Offered(), c.Admitted(), c.Shed(), c.Deferred())
	}
}

func TestAdmissionBasics(t *testing.T) {
	c := NewController(AdmissionPolicy{MaxInFlight: 2, MaxQueue: 2})

	if d := c.Offer(0, math.NaN(), 0.1); d != Admit {
		t.Fatalf("first offer: %v, want Admit (NaN p99 is no signal)", d)
	}
	if d := c.Offer(1, 0.05, 0.1); d != Admit {
		t.Fatalf("second offer under capacity: %v, want Admit", d)
	}
	if d := c.Offer(2, 0.05, 0.1); d != Defer {
		t.Fatalf("offer at capacity: %v, want Defer", d)
	}
	if d := c.Offer(2, 0.05, 0.1); d != Defer {
		t.Fatalf("second defer: %v, want Defer", d)
	}
	if d := c.Offer(2, 0.05, 0.1); d != Shed {
		t.Fatalf("offer with full queue: %v, want Shed", d)
	}
	if d := c.Offer(0, 0.2, 0.1); d != Shed {
		t.Fatalf("offer with p99 over SLO: %v, want Shed", d)
	}
	conserved(t, c)
	if c.Offered() != 6 || c.Admitted() != 2 || c.Shed() != 2 || c.Deferred() != 2 {
		t.Fatalf("accounts: offered %d admitted %d shed %d deferred %d",
			c.Offered(), c.Admitted(), c.Shed(), c.Deferred())
	}

	// FIFO head-of-line: capacity freed, queued requests dispatch.
	if !c.CanDispatch(1) {
		t.Fatal("CanDispatch(1) under MaxInFlight 2 must be true")
	}
	c.Dispatch()
	c.Dispatch()
	conserved(t, c)
	if c.Deferred() != 0 || c.Admitted() != 4 {
		t.Fatalf("after dispatch: deferred %d admitted %d", c.Deferred(), c.Admitted())
	}
	if c.DeferredTotal() != 2 {
		t.Fatalf("DeferredTotal %d, want 2", c.DeferredTotal())
	}
}

func TestAdmissionQueuePreservesFIFO(t *testing.T) {
	// A deferred request must not be overtaken by a new arrival even when
	// capacity has freed: Offer defers whenever the queue is non-empty.
	c := NewController(AdmissionPolicy{MaxInFlight: 1, MaxQueue: 4})
	c.Offer(0, math.NaN(), 0) // admit
	if d := c.Offer(1, math.NaN(), 0); d != Defer {
		t.Fatalf("want Defer at capacity, got %v", d)
	}
	// The in-flight block finished (inflight 0) but the queue is non-empty:
	// the new arrival must queue behind it, not jump it.
	if d := c.Offer(0, math.NaN(), 0); d != Defer {
		t.Fatalf("arrival overtook the queue: %v, want Defer", d)
	}
	conserved(t, c)
}

func TestAdmissionDemote(t *testing.T) {
	c := NewController(AdmissionPolicy{MaxInFlight: 4, MaxQueue: 1})
	c.Offer(0, math.NaN(), 0)
	if d := c.Demote(); d != Defer {
		t.Fatalf("demote with queue room: %v, want Defer", d)
	}
	conserved(t, c)
	if d := c.Offer(0, math.NaN(), 0); d != Shed {
		t.Fatalf("offer with the one-slot queue full: %v, want Shed", d)
	}
	conserved(t, c)

	// No queue room — a demoted admit sheds.
	c2 := NewController(AdmissionPolicy{MaxInFlight: 4})
	c2.Offer(0, math.NaN(), 0)
	c2.pol.MaxQueue = 0 // force the no-room corner (0 would normalize to 256)
	if d := c2.Demote(); d != Shed {
		t.Fatalf("demote with full queue: %v, want Shed", d)
	}
	conserved(t, c2)

	// Nothing admitted: Demote is a no-op shed verdict.
	c3 := NewController(AdmissionPolicy{})
	if d := c3.Demote(); d != Shed {
		t.Fatalf("demote with no admits: %v, want Shed", d)
	}
	if c3.Offered() != 0 || c3.Shed() != 0 {
		t.Fatalf("no-op demote touched counters: %+v", c3)
	}
}

func TestAdmissionDisabled(t *testing.T) {
	c := NewController(AdmissionPolicy{Disabled: true})
	for i := 0; i < 1000; i++ {
		if d := c.Offer(i*10, 99, 0.001); d != Admit {
			t.Fatalf("disabled controller returned %v", d)
		}
	}
	if c.Admitted() != 1000 || c.Shed() != 0 || c.Deferred() != 0 {
		t.Fatalf("disabled accounts: %+v", c)
	}
	if !c.CanDispatch(1 << 20) {
		t.Fatal("disabled controller must always allow dispatch")
	}
}

func TestAdmissionNonFiniteP99NeverSheds(t *testing.T) {
	c := NewController(AdmissionPolicy{MaxInFlight: 1 << 30, MaxQueue: 1})
	for _, p99 := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if d := c.Offer(0, p99, 0.001); d != Admit {
			t.Fatalf("p99=%v shed: absence of signal is not overload", p99)
		}
	}
	conserved(t, c)
}

func TestAdmissionNormalizedDefaults(t *testing.T) {
	p := AdmissionPolicy{}.Normalized()
	if p.MaxInFlight != 64 || p.MaxQueue != 256 {
		t.Fatalf("zero policy normalized to %+v", p)
	}
	p = AdmissionPolicy{MaxInFlight: -3, MaxQueue: -9}.Normalized()
	if p.MaxInFlight != 64 || p.MaxQueue != 256 {
		t.Fatalf("garbage policy normalized to %+v", p)
	}
}

// TestAdmissionOfferZeroAlloc guards the hot path (part of the CI
// bench-smoke ZeroAlloc|ConstantAlloc gate): an arrival's admission
// decision and a queue dispatch allocate nothing.
func TestAdmissionOfferZeroAlloc(t *testing.T) {
	c := NewController(AdmissionPolicy{MaxInFlight: 4, MaxQueue: 4})
	inflight := 0
	if n := testing.AllocsPerRun(1000, func() {
		d := c.Offer(inflight, 0.05, 0.1)
		if d == Admit {
			inflight++
		}
		if inflight >= 3 {
			inflight = 0
			c.Dispatch()
		}
	}); n != 0 {
		t.Fatalf("Offer/Dispatch allocated %.1f bytes-ops per run, want 0", n)
	}
}
