package starpu

import (
	"testing"

	"plbhec/internal/apps"
	"plbhec/internal/cluster"
	"plbhec/internal/telemetry"
)

// Tentpole coverage for the data-residency subsystem: capacity under chaos,
// Report ↔ /metrics agreement, oversized blocks, the zero-byte transfer skip, and locality-aware requeue targeting.

// localitySession builds an MM sim session with residency tracking, the
// given pass count, and attached run metrics.
func localitySession(n int64, passes int, cfg SimConfig) (*Session, *cluster.Cluster, *telemetry.Telemetry) {
	clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
	app := apps.NewMatMul(apps.MatMulConfig{N: n}).WithPasses(passes)
	cfg.Locality = true
	sess := NewSimSession(clu, app, cfg)
	tel := telemetry.New()
	tel.Attach(telemetry.NewRunMetrics(tel.Registry(), []string{"A/cpu", "A/gpu", "B/cpu", "B/gpu"}))
	sess.AttachTelemetry(tel)
	return sess, clu, tel
}

// TestLocalityCapacityUnderChaos: MM 16384 carries ~2.1 GB of distinct
// input — far over the GTX 295's 0.896 GB — and a mid-run death of the
// other GPU shovels extra load onto it. The residency cache must evict
// rather than overflow: every unit's final resident footprint stays within
// its device capacity, evictions actually happen, and the run still covers
// every unit exactly once.
func TestLocalityCapacityUnderChaos(t *testing.T) {
	const n = 16384
	cfg := SimConfig{Retry: true}
	sess, clu, _ := localitySession(n, 1, cfg)
	dev := clu.PUs()[1].Dev // A/Tesla K20c
	if err := sess.ScheduleAt(0.05, func() {
		dev.SetSpeedFactor(0)
		sess.DeviceStateChanged(1)
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(&fixedScheduler{block: n / 64})
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, rep.Records, n)
	loc := rep.Locality
	if loc == nil {
		t.Fatal("locality run carried no residency report")
	}
	for i, pu := range clu.PUs() {
		if cap := pu.Dev.MemGB * 1e9; cap > 0 && loc.ResidentBytes[i] > cap {
			t.Errorf("%s resident %.0f bytes exceeds capacity %.0f", pu.Name(), loc.ResidentBytes[i], cap)
		}
	}
	if loc.Evictions == 0 {
		t.Error("a 2.1 GB working set on a 0.896 GB device must evict")
	}
	// The dead unit's memory is gone: nothing may remain resident on it.
	if loc.ResidentBytes[1] != 0 {
		t.Errorf("dead unit still claims %.0f resident bytes", loc.ResidentBytes[1])
	}
}

// TestLocalityReportMatchesMetrics: the Report.Locality counters and the
// plbhec_handle_* run metrics are fed by the same EvResidency events and
// must agree exactly.
func TestLocalityReportMatchesMetrics(t *testing.T) {
	sess, _, tel := localitySession(2048, 3, SimConfig{})
	rep, err := sess.Run(&fixedScheduler{block: 256})
	if err != nil {
		t.Fatal(err)
	}
	loc := rep.Locality
	if loc == nil {
		t.Fatal("locality run carried no residency report")
	}
	if loc.Hits == 0 || loc.Misses == 0 {
		t.Fatalf("repeated-handle run should see both hits and misses, got %d/%d", loc.Hits, loc.Misses)
	}
	reg := tel.Registry()
	for _, c := range []struct {
		name string
		want float64
	}{
		{"plbhec_handle_hits_total", float64(loc.Hits)},
		{"plbhec_handle_misses_total", float64(loc.Misses)},
		{"plbhec_handle_evictions_total", float64(loc.Evictions)},
	} {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %g, Report says %g", c.name, got, c.want)
		}
	}
	if base := loc.BaselineBytes(); base != loc.TransferredBytes+loc.SavedBytes {
		t.Errorf("BaselineBytes %g != transferred+saved %g", base, loc.TransferredBytes+loc.SavedBytes)
	}
}

// TestLocalityOversizedBlockRuns: a block whose input exceeds the target
// device's MemGB runs both by default (the kernel profiles document shared
// inputs as streamed tiles) and in locality mode, where the residency cache
// evicts and streams to fit.
func TestLocalityOversizedBlockRuns(t *testing.T) {
	// 8N bytes/unit: each unit's quarter-share block is ~1.57 GB, over the
	// GTX 295's 0.896 GB but under the K20c's 6 GB (CPUs are uncapped).
	const n = 28000
	for _, cfg := range []SimConfig{{}, {Locality: true}} {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
		sess := NewSimSession(clu, apps.NewMatMul(apps.MatMulConfig{N: n}), cfg)
		if _, err := sess.Run(&fixedScheduler{block: n / 4}); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
	}
}

// TestLocalityFullHitSkipsTransfer: a block whose input is fully resident
// moves zero bytes, and the engine must then skip the transfer phase
// entirely — no link acquisition, no latency floor, TransferEnd ==
// TransferStart. Legacy mode pays a positive transfer on every GPU block.
func TestLocalityFullHitSkipsTransfer(t *testing.T) {
	run := func(cfg SimConfig) *Report {
		clu := cluster.TableI(cluster.Config{Machines: 2, Seed: 1})
		app := apps.NewMatMul(apps.MatMulConfig{N: 2048}).WithPasses(2)
		rep, err := NewSimSession(clu, app, cfg).Run(&fixedScheduler{block: 256})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	zeroGPU := func(rep *Report) (zero, total int) {
		for _, r := range rep.Records {
			if r.PU == 1 || r.PU == 3 { // the two GPUs
				total++
				if r.TransferEnd == r.TransferStart {
					zero++
				}
			}
		}
		return
	}
	loc := run(SimConfig{Locality: true})
	if zero, total := zeroGPU(loc); zero == 0 {
		t.Errorf("locality second pass produced no zero-transfer GPU block (%d records)", total)
	}
	legacy := run(SimConfig{})
	if zero, _ := zeroGPU(legacy); zero != 0 {
		t.Errorf("legacy mode produced %d zero-transfer GPU blocks", zero)
	}
}

// TestRequeuePrefersDataHolder: with residency tracked, a requeued block
// goes to the healthy unit already holding its data, not merely the
// least-loaded one.
func TestRequeuePrefersDataHolder(t *testing.T) {
	sess, _, _ := localitySession(4096, 1, SimConfig{Retry: true})
	// Warm unit 3 (B/GTX 295) with [0, 256); every other unit is cold.
	sess.fetchBytes(3, 0, 0, 256)
	if got := sess.pickRequeueTarget(1, 0, 256); got != 3 {
		t.Errorf("requeue target = %d, want the data holder 3", got)
	}
	// On a cold range the legacy least-loaded/lowest-ID rule is unchanged.
	if got := sess.pickRequeueTarget(1, 1024, 1280); got != 0 {
		t.Errorf("cold-range requeue target = %d, want 0", got)
	}
	// And the data holder loses to an equally-warm, less-loaded unit.
	sess.fetchBytes(2, 0, 0, 256)
	sess.inflightPU[3] += 2
	if got := sess.pickRequeueTarget(1, 0, 256); got != 2 {
		t.Errorf("loaded-holder requeue target = %d, want the idle holder 2", got)
	}
}
