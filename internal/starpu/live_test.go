package starpu

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"plbhec/internal/telemetry"
)

// countingKernel records which units were executed, concurrently safe for
// disjoint ranges.
type countingKernel struct {
	hits  []int32
	calls int64
}

func (k *countingKernel) Execute(lo, hi int64) {
	atomic.AddInt64(&k.calls, 1)
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&k.hits[i], 1)
	}
}

func TestLiveSessionExecutesEveryUnitOnce(t *testing.T) {
	const units = 500
	k := &countingKernel{hits: make([]int32, units)}
	sess := NewLiveSession(k, LiveConfig{
		Workers: []LiveWorkerSpec{
			{Name: "w0"}, {Name: "w1"}, {Name: "w2", Slowdown: 3},
		},
		TotalUnits: units,
		AppName:    "counting",
	})
	rep, err := sess.Run(&fixedScheduler{block: 23})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range k.hits {
		if h != 1 {
			t.Fatalf("unit %d executed %d times", i, h)
		}
	}
	if rep.Makespan <= 0 {
		t.Error("live makespan should be positive")
	}
	var total int64
	for _, r := range rep.Records {
		total += r.Units
	}
	if total != units {
		t.Errorf("records cover %d units, want %d", total, units)
	}
}

func TestLiveSessionThrottledWorkerIsSlower(t *testing.T) {
	const units = 400
	work := func(lo, hi int64) {
		// Busy-ish kernel so throttling has something to scale.
		s := 0.0
		for i := lo; i < hi; i++ {
			for j := 0; j < 2000; j++ {
				s += float64(j ^ int(i))
			}
		}
		_ = s
	}
	k := kernelFunc(work)
	sess := NewLiveSession(k, LiveConfig{
		Workers: []LiveWorkerSpec{
			{Name: "fast"}, {Name: "slow", Slowdown: 6},
		},
		TotalUnits: units,
	})
	rep, err := sess.Run(&fixedScheduler{block: 20})
	if err != nil {
		t.Fatal(err)
	}
	var fastUnits, slowUnits int64
	for _, r := range rep.Records {
		if r.PU == 0 {
			fastUnits += r.Units
		} else {
			slowUnits += r.Units
		}
	}
	// Self-scheduling on a 6x-slower worker should skew the unit split.
	if fastUnits <= slowUnits {
		t.Errorf("throttled worker processed %d units vs fast %d", slowUnits, fastUnits)
	}
}

// kernelFunc adapts a func to LiveKernel.
type kernelFunc func(lo, hi int64)

func (f kernelFunc) Execute(lo, hi int64) { f(lo, hi) }

// TestLiveScheduleAt: the live engine runs ScheduleAt callbacks from its
// timer queue on the driving goroutine, serialized with scheduler callbacks.
func TestLiveScheduleAt(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		const units = 30
		k := kernelFunc(func(lo, hi int64) { time.Sleep(time.Millisecond) })
		sess := NewLiveSession(k, LiveConfig{
			Workers:    []LiveWorkerSpec{{Name: "w"}},
			TotalUnits: units,
		})
		// log is shared, unsynchronized, by timer and scheduler callbacks:
		// under -race any callback off the driving goroutine is reported.
		var log []string
		logAt := func(name string, at float64) func() {
			return func() {
				if now := sess.Now(); now < at {
					t.Errorf("%s fired at %g, before its time %g", name, now, at)
				}
				log = append(log, name)
			}
		}
		for _, c := range []struct {
			name string
			at   float64
		}{{"A", 0.004}, {"B", 0.002}, {"C", 0.004}, {"D", 0.002}, {"never", 100}} {
			if err := sess.ScheduleAt(c.at, logAt(c.name, c.at)); err != nil {
				t.Fatal(err)
			}
		}
		// A time in the past clamps to now and fires first; a callback may
		// schedule further callbacks.
		if err := sess.ScheduleAt(-1, func() {
			log = append(log, "E")
			g := sess.Now() + 0.006
			if err := sess.ScheduleAt(g, logAt("G", g)); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		sched := &callbackScheduler{
			start: func(s *Session) { s.Assign(s.PUs()[0], 1) },
			finished: func(s *Session, rec TaskRecord) {
				log = append(log, "done")
				if s.Remaining() > 0 {
					s.Assign(s.PUs()[0], 1)
				}
			},
		}
		if _, err := sess.Run(sched); err != nil {
			t.Fatal(err)
		}
		var fired []string
		for _, name := range log {
			if name != "done" {
				fired = append(fired, name)
			}
		}
		// The run lasts ≥ 30 ms; "never" is still pending when the last block
		// completes and is dropped.
		if want := []string{"E", "B", "D", "A", "C", "G"}; !reflect.DeepEqual(fired, want) {
			t.Errorf("callbacks fired in order %v, want %v", fired, want)
		}
	})

	t.Run("retry", func(t *testing.T) {
		const units, block = 480, 20
		const backoff = 0.02
		k := &countingKernel{hits: make([]int32, units)}
		slow := kernelFunc(func(lo, hi int64) {
			k.Execute(lo, hi)
			time.Sleep(2 * time.Millisecond)
		})
		sess := NewLiveSession(slow, LiveConfig{
			Workers:    []LiveWorkerSpec{{Name: "w0"}, {Name: "w1"}},
			TotalUnits: units,
			Retry:      &RetryPolicy{BackoffSeconds: backoff},
		})
		requeued := map[int]int{}
		tel := telemetry.New()
		tel.Attach(sinkFunc(func(ev telemetry.Event) {
			if ev.Kind == telemetry.EvRequeue {
				requeued[ev.Seq]++
			}
		}))
		sess.AttachTelemetry(tel)
		killedAt := -1.0
		if err := sess.ScheduleAt(0.002, func() {
			killedAt = sess.Now()
			sess.PUs()[1].Dev.SetSpeedFactor(0)
			sess.DeviceStateChanged(1)
		}); err != nil {
			t.Fatal(err)
		}
		owner := map[int]int{}
		assign := func(s *Session, pu int) {
			if s.Remaining() > 0 {
				owner[s.NextSeq()] = pu
				s.Assign(s.PUs()[pu], block)
			}
		}
		sched := &callbackScheduler{
			start: func(s *Session) {
				// Queue several blocks on each worker, so the kill lands
				// while blocks still wait in the dead worker's queue.
				for i := 0; i < 8; i++ {
					assign(s, 0)
					assign(s, 1)
				}
			},
			finished: func(s *Session, rec TaskRecord) { assign(s, 0) },
		}
		rep, err := sess.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		checkExactlyOnce(t, rep.Records, units)
		for i, h := range k.hits {
			if h != 1 {
				t.Fatalf("unit %d executed %d times", i, h)
			}
		}
		if killedAt < 0 {
			t.Fatal("the kill callback never fired")
		}
		moved := 0
		for _, r := range rep.Records {
			if r.PU == owner[r.Seq] {
				continue
			}
			moved++
			if n := requeued[r.Seq]; n != 1 {
				t.Errorf("block %d requeued %d times, want exactly 1", r.Seq, n)
			}
			if r.SubmitTime < killedAt+backoff {
				t.Errorf("block %d relaunched at %g, less than the %g s backoff after the kill at %g",
					r.Seq, r.SubmitTime, backoff, killedAt)
			}
		}
		if moved == 0 {
			t.Fatal("no block was requeued off the killed worker")
		}
		if len(requeued) != moved {
			t.Errorf("%d blocks requeued, %d delivered off their first worker", len(requeued), moved)
		}
		if got := rep.Resilience[1].Requeues; got != int64(moved) {
			t.Errorf("Resilience.Requeues = %d, want %d", got, moved)
		}
	})
}

// sinkFunc adapts a func to telemetry.Sink.
type sinkFunc func(telemetry.Event)

func (f sinkFunc) Consume(ev telemetry.Event) { f(ev) }

func TestLiveParallelWorkerCoversAllUnits(t *testing.T) {
	const units = 700
	k := &countingKernel{hits: make([]int32, units)}
	sess := NewLiveSession(k, LiveConfig{
		Workers: []LiveWorkerSpec{
			{Name: "multi", Parallelism: 4},
			{Name: "single"},
		},
		TotalUnits: units,
	})
	if _, err := sess.Run(&fixedScheduler{block: 33}); err != nil {
		t.Fatal(err)
	}
	for i, h := range k.hits {
		if h != 1 {
			t.Fatalf("unit %d executed %d times", i, h)
		}
	}
}

func TestLiveParallelSmallBlocksFallBackToSerial(t *testing.T) {
	// Blocks smaller than the parallelism degree run serially (no empty
	// stripes, no lost units).
	const units = 10
	k := &countingKernel{hits: make([]int32, units)}
	sess := NewLiveSession(k, LiveConfig{
		Workers:    []LiveWorkerSpec{{Name: "w", Parallelism: 8}},
		TotalUnits: units,
	})
	if _, err := sess.Run(&fixedScheduler{block: 3}); err != nil {
		t.Fatal(err)
	}
	for i, h := range k.hits {
		if h != 1 {
			t.Fatalf("unit %d executed %d times", i, h)
		}
	}
}
