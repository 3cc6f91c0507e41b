package starpu

import (
	"plbhec/internal/residency"
	"plbhec/internal/telemetry"
)

// This file is the session side of the data-residency subsystem, switched on
// by SimConfig.Locality / LiveConfig.Locality: shipped block inputs stay
// resident on their device (handle-granular LRU bounded by
// device.Spec.MemGB), transfers are charged only for the bytes actually
// missing, and placement decisions — schedulers, requeue, speculation —
// weigh where a block's data already lives. It holds the per-handle
// residency cache charged by both engines and the transfer-cost accessors
// placement decisions consult. Without locality every legacy code path —
// and the golden record streams — stays bit-identical.

// LocalityReport summarizes a locality-enabled run's residency activity.
type LocalityReport struct {
	// Hits/Misses/Evictions are handle-granular counts over the whole run
	// (matching plbhec_handle_{hits,misses,evictions}_total).
	Hits, Misses, Evictions int64
	// TransferredBytes is the data actually shipped (misses only);
	// SavedBytes is the data residency hits avoided shipping. Their sum is
	// what a residency-blind runtime would have transferred.
	TransferredBytes, SavedBytes float64
	// ResidentBytes is each unit's resident footprint at run end, cluster
	// order.
	ResidentBytes []float64
}

// BaselineBytes is the transfer volume a residency-blind runtime would have
// charged for the same record stream.
func (r *LocalityReport) BaselineBytes() float64 {
	return r.TransferredBytes + r.SavedBytes
}

// LocalityEnabled reports whether the session tracks data residency.
func (s *Session) LocalityEnabled() bool { return s.res != nil }

// initLocality builds the residency tracker, with handles of
// residency.DefaultHandleUnits work units. capacities are per-unit byte
// budgets (<= 0 or missing: unlimited); dataUnits is the distinct-datum
// count (work unit u touches datum u mod dataUnits).
func (s *Session) initLocality(dataUnits int64, capacities []float64) {
	s.res = residency.New(residency.Config{
		PUs:           len(s.pus),
		BytesPerUnit:  s.profile.TransferBytesPerUnit,
		DataUnits:     dataUnits,
		CapacityBytes: capacities,
	})
	s.locStats = &LocalityReport{}
}

// fetchBytes returns the bytes the engine must move to run block [lo, hi)
// on pu. Legacy mode charges the full input every time; locality mode
// charges the residency cache — handles touched become resident (evicting
// LRU tiles over capacity) and only misses pay transfer.
func (s *Session) fetchBytes(pu int, seq int, lo, hi int64) float64 {
	full := float64(hi-lo) * s.transferBytesPerUnit(seq)
	if s.res == nil {
		return full
	}
	r := s.res.Fetch(pu, lo, hi)
	st := s.locStats
	st.Hits += r.Hits
	st.Misses += r.Misses
	st.Evictions += r.Evictions
	st.TransferredBytes += r.MissBytes
	st.SavedBytes += r.HitBytes
	if s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvResidency, Time: s.eng.now(), Name: "fetch",
			PU: pu, Seq: seq, Units: r.Evictions,
			Value: float64(r.Hits), Aux: float64(r.Misses),
		})
	}
	return r.MissBytes
}

// invalidateResidency wipes pu's resident set after a device death — its
// memory contents are gone, so every handle must be re-fetched.
func (s *Session) invalidateResidency(pu int) {
	if s.res == nil {
		return
	}
	handles, bytes := s.res.Invalidate(pu)
	if handles > 0 && s.tel != nil {
		s.tel.Emit(telemetry.Event{
			Kind: telemetry.EvResidency, Time: s.eng.now(), Name: "invalidate",
			PU: pu, Units: handles, Value: float64(handles), Aux: bytes,
		})
	}
}

// InFlightOn returns the number of blocks currently assigned but unfinished
// on pu.
func (s *Session) InFlightOn(pu int) int {
	if pu < 0 || pu >= len(s.inflightPU) {
		return 0
	}
	return s.inflightPU[pu]
}

// NextTransferSeconds estimates the nominal data-movement seconds pu would
// pay for the *next* cursor block of the given size: in locality mode only
// the bytes missing from pu's residency are charged (a pure query — nothing
// becomes resident), legacy mode charges the full input. Schedulers use it
// to route the immediate next block toward the data it needs.
func (s *Session) NextTransferSeconds(pu int, units float64) float64 {
	if pu < 0 || pu >= len(s.pus) || units <= 0 || s.remaining <= 0 {
		return 0
	}
	n := int64(units + 0.5)
	if n < 1 {
		n = 1
	}
	if n > s.remaining {
		n = s.remaining
	}
	lo := s.cursor
	bytes := float64(n) * s.profile.TransferBytesPerUnit
	if s.res != nil {
		bytes = s.res.MissBytes(pu, lo, lo+n)
	}
	return s.pus[pu].NominalTransferSeconds(bytes)
}

// LocalityHint returns pu's placement-objective transfer term: missFrac is
// the unit's observed handle miss fraction so far (1 before any
// observation), perUnitSec the nominal bandwidth seconds to ship one work
// unit's input to pu, and perBlockSec the per-transfer latency floor. ok is
// false when locality is disabled — schedulers then keep their legacy
// objective untouched. Weight solvers fold missFrac × (perBlockSec +
// perUnitSec·x) into each unit's projected block time.
func (s *Session) LocalityHint(pu int) (missFrac, perUnitSec, perBlockSec float64, ok bool) {
	if s.res == nil || pu < 0 || pu >= len(s.pus) {
		return 0, 0, 0, false
	}
	hits, misses, _ := s.res.PUCounters(pu)
	missFrac = 1
	if hits+misses > 0 {
		missFrac = float64(misses) / float64(hits+misses)
	}
	p := s.pus[pu]
	b := s.profile.TransferBytesPerUnit
	if !p.Machine.IsMaster {
		perUnitSec += b / p.Machine.NIC.BandwidthBps
		perBlockSec += p.Machine.NIC.LatencySec
	}
	if p.IsGPU() {
		perUnitSec += b / p.Machine.PCIe.BandwidthBps
		perBlockSec += p.Machine.PCIe.LatencySec
	}
	return missFrac, perUnitSec, perBlockSec, true
}

// Locality returns the session's residency summary so far (nil when
// locality is disabled). The Report carries a final copy.
func (s *Session) Locality() *LocalityReport { return s.locStats }

// localityReportFinal snapshots the residency state into the Report.
func (s *Session) localityReportFinal() *LocalityReport {
	if s.locStats == nil {
		return nil
	}
	out := *s.locStats
	out.ResidentBytes = make([]float64, len(s.pus))
	for i := range s.pus {
		out.ResidentBytes[i] = s.res.ResidentBytes(i)
	}
	return &out
}
