package starpu

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/telemetry"
)

// seenScheduler runs fixedScheduler and keeps every record TaskFinished
// receives, in order. It cancels the run after cancelAfter records when
// cancel is set, and notes the most chunks the log held.
type seenScheduler struct {
	fixedScheduler
	seen        []TaskRecord
	maxChunks   int
	cancelAfter int
	cancel      context.CancelFunc
}

func (w *seenScheduler) TaskFinished(s *Session, rec TaskRecord) {
	w.seen = append(w.seen, rec)
	w.maxChunks = max(w.maxChunks, len(s.log.chunks))
	if w.cancel != nil && len(w.seen) == w.cancelAfter {
		w.cancel()
	}
	w.fixedScheduler.TaskFinished(s, rec)
}

// completions is a telemetry sink that keeps the (PU, Seq) of every
// completed block, independently of the session's record log.
type completions [][2]int

func (c *completions) Consume(ev telemetry.Event) {
	if ev.Kind == telemetry.EvTaskComplete {
		*c = append(*c, [2]int{ev.PU, ev.Seq})
	}
}

func newBlockSession(blocks, block int64) *Session {
	prof := apps.NewMatMul(apps.MatMulConfig{N: 2048}).Profile()
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 3})
	s, _ := newSimSession(clu, prof, "mm", blocks*block, blocks*block, SimConfig{})
	return s
}

// TestRecordLogOrderAcrossChunks: a run whose log spans many chunks
// reports every record once, in the order the scheduler saw them, and
// Session.Records returns the Report's slice without a second copy.
func TestRecordLogOrderAcrossChunks(t *testing.T) {
	const blocks = 4000
	s := newBlockSession(blocks, 4)
	w := &seenScheduler{fixedScheduler: fixedScheduler{block: 4}}
	rep, err := s.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if w.maxChunks < 5 {
		t.Fatalf("log held at most %d chunks, want ≥ 5", w.maxChunks)
	}
	if len(rep.Records) != blocks || len(w.seen) != blocks {
		t.Fatalf("%d records, %d seen, want %d", len(rep.Records), len(w.seen), blocks)
	}
	for i := range w.seen {
		if rep.Records[i] != w.seen[i] {
			t.Fatalf("record %d = %+v, TaskFinished saw %+v", i, rep.Records[i], w.seen[i])
		}
	}
	checkExactlyOnce(t, rep.Records, blocks*4)
	if again := s.Records(); len(again) != blocks || &again[0] != &rep.Records[0] {
		t.Errorf("Records after Run copied the log again")
	}
}

// TestRecordLogCancelledRunKeepsRecords: a run cancelled after its log
// outgrew several chunks still returns every completed block from
// Session.Records, in completion order.
func TestRecordLogCancelledRunKeepsRecords(t *testing.T) {
	s := newBlockSession(4000, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.SetContext(ctx)
	tel := telemetry.New()
	var done completions
	tel.Attach(&done)
	s.AttachTelemetry(tel)
	w := &seenScheduler{fixedScheduler: fixedScheduler{block: 4}, cancelAfter: 2500, cancel: cancel}
	if _, err := s.Run(w); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error %v, want context.Canceled", err)
	}
	if w.maxChunks < 3 {
		t.Fatalf("log held at most %d chunks before the cancel, want ≥ 3", w.maxChunks)
	}
	recs := s.Records()
	if len(recs) != len(done) {
		t.Fatalf("Records has %d records, %d blocks completed", len(recs), len(done))
	}
	for i, r := range recs {
		if r.PU != done[i][0] || r.Seq != done[i][1] {
			t.Fatalf("record %d is (PU %d, seq %d), completion %d was %v", i, r.PU, r.Seq, i, done[i])
		}
		if i < len(w.seen) && r != w.seen[i] {
			t.Fatalf("record %d = %+v, TaskFinished saw %+v", i, r, w.seen[i])
		}
	}
}

// TestRecordLogAllocBound bounds the bytes a closed run allocates in Run
// for a long log: growing the log copies no record, so the chunks and the
// Report's one exact-length copy stay under 2.5 records' bytes per block
// plus a fixed slack. Growing one slice by append cost 4.6 here.
func TestRecordLogAllocBound(t *testing.T) {
	const blocks = 20000
	recBytes := uint64(unsafe.Sizeof(TaskRecord{}))
	limit := uint64(2.5*float64(blocks*recBytes)) + 256<<10
	best := ^uint64(0)
	for run := 0; run < 3; run++ {
		s := newBlockSession(blocks, 16)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := s.Run(&fixedScheduler{block: 16})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Records) != blocks {
			t.Fatalf("%d records for %d blocks", len(rep.Records), blocks)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Run allocated %d B for %d blocks: %.2f records' bytes per block", best, blocks,
		float64(best)/float64(blocks*recBytes))
	if best > limit {
		t.Errorf("Run allocated %d B for %d blocks, want ≤ %d (2.5 × %d B per block + 256 KiB)",
			best, blocks, limit, recBytes)
	}
}
