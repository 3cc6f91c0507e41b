package health

import (
	"math"
	"testing"
)

func phiCfg() Config {
	return Config{Kind: PhiAccrual, IntervalSeconds: 0.05, PhiThreshold: 8,
		TimeoutSeconds: 0.15}
}

// TestPhiMonotoneInSilence: phi must be non-decreasing in silence, zero-ish
// right after a heartbeat, and cross any finite threshold eventually.
func TestPhiMonotoneInSilence(t *testing.T) {
	d := NewDetector(phiCfg(), 1)
	for i := 1; i <= 10; i++ {
		d.Heartbeat(0, float64(i)*0.05)
	}
	last := -1.0
	for s := 0.0; s < 1.0; s += 0.01 {
		phi := d.Phi(0, 0.5+s)
		if phi < last {
			t.Fatalf("phi decreased with silence: %g after %g at +%.2fs", phi, last, s)
		}
		last = phi
	}
	if !d.Suspect(0, 0.5+1.0) {
		t.Fatal("one second of silence on a 50ms heartbeat never became suspect")
	}
}

// TestSuspectAtInvertsPhi: the scheduled crossing time must agree with the
// pointwise phi evaluation — phi is below threshold just before SuspectAt
// and at/above it just after. This is the contract the simulator's
// single-event (non-polling) suspicion scheduling relies on.
func TestSuspectAtInvertsPhi(t *testing.T) {
	d := NewDetector(phiCfg(), 1)
	for i := 1; i <= 8; i++ {
		d.Heartbeat(0, float64(i)*0.05)
	}
	at := d.SuspectAt(0)
	if math.IsInf(at, 0) || at <= d.LastSeen(0) {
		t.Fatalf("SuspectAt = %g, want finite time after last heartbeat %g", at, d.LastSeen(0))
	}
	const eps = 1e-6
	if phi := d.Phi(0, at-eps); phi >= 8 {
		t.Fatalf("phi already %g just before the predicted crossing", phi)
	}
	if phi := d.Phi(0, at+eps); phi < 8 {
		t.Fatalf("phi only %g just after the predicted crossing", phi)
	}
}

// TestPhiBootstrapUsesTimeout: before MinSamples intervals have arrived the
// phi detector must apply the fixed TimeoutSeconds silence — the documented
// bootstrap behavior — not the thin window's fitted fallback, which with the
// defaults would cross at ~interval + 5.6·minStd and false-suspect units
// during startup far earlier than the policy promises.
func TestPhiBootstrapUsesTimeout(t *testing.T) {
	cfg := phiCfg()
	d := NewDetector(cfg, 1)
	// Two heartbeats = one interval sample, below MinSamples = 3.
	d.Heartbeat(0, 0.05)
	d.Heartbeat(0, 0.10)
	if got := d.SuspectAfter(0); got != cfg.TimeoutSeconds {
		t.Fatalf("bootstrap SuspectAfter = %g, want TimeoutSeconds %g", got, cfg.TimeoutSeconds)
	}
	if d.Suspect(0, 0.10+cfg.TimeoutSeconds-1e-9) {
		t.Fatal("suspect before the bootstrap timeout")
	}
	if !d.Suspect(0, 0.10+cfg.TimeoutSeconds) {
		t.Fatal("not suspect at the bootstrap timeout")
	}
	if phi := d.Phi(0, 0.10+cfg.TimeoutSeconds/2); phi != 0 {
		t.Fatalf("bootstrap phi before timeout = %g, want 0", phi)
	}
	// One more interval reaches MinSamples: the fitted window takes over and
	// the periodic stream's crossing moves below the bootstrap timeout.
	d.Heartbeat(0, 0.15)
	d.Heartbeat(0, 0.20)
	if got := d.SuspectAfter(0); got >= cfg.TimeoutSeconds {
		t.Fatalf("fitted SuspectAfter = %g, want below bootstrap timeout %g", got, cfg.TimeoutSeconds)
	}
}

// TestPhiAdaptsToJitter: a jittery arrival history must push the crossing
// time further out than a perfectly periodic one — the adaptivity that
// distinguishes phi-accrual from a fixed deadline.
func TestPhiAdaptsToJitter(t *testing.T) {
	steady := NewDetector(phiCfg(), 1)
	jitter := NewDetector(phiCfg(), 1)
	ts, tj := 0.0, 0.0
	for i := 0; i < 20; i++ {
		ts += 0.05
		steady.Heartbeat(0, ts)
		dt := 0.05
		if i%2 == 0 {
			dt = 0.12
		}
		tj += dt
		jitter.Heartbeat(0, tj)
	}
	if ms, mj := steady.SuspectAfter(0), jitter.SuspectAfter(0); mj <= ms {
		t.Fatalf("jittery stream margin %g not above steady margin %g", mj, ms)
	}
}

// TestDeadlineKind: the cheap rung is a pure timeout.
func TestDeadlineKind(t *testing.T) {
	cfg := phiCfg()
	cfg.Kind = Deadline
	d := NewDetector(cfg, 2)
	d.Heartbeat(1, 1.0)
	if d.Suspect(1, 1.0+cfg.TimeoutSeconds-1e-9) {
		t.Fatal("suspect before the deadline")
	}
	if !d.Suspect(1, 1.0+cfg.TimeoutSeconds) {
		t.Fatal("not suspect at the deadline")
	}
	if got := d.SuspectAt(1); got != 1.0+cfg.TimeoutSeconds {
		t.Fatalf("SuspectAt = %g, want %g", got, 1.0+cfg.TimeoutSeconds)
	}
	if phi := d.Phi(1, 1.01); phi != 0 {
		t.Fatalf("deadline phi before timeout = %g, want 0", phi)
	}
}

// TestDuplicateHeartbeat: a same-instant duplicate refreshes liveness but
// must not poison the interval window with a zero sample.
func TestDuplicateHeartbeat(t *testing.T) {
	d := NewDetector(phiCfg(), 1)
	for i := 1; i <= 5; i++ {
		d.Heartbeat(0, float64(i)*0.05)
		d.Heartbeat(0, float64(i)*0.05)
	}
	mean, std := d.stats(0)
	if math.Abs(mean-0.05) > 1e-12 {
		t.Fatalf("mean interval %g polluted by duplicate arrivals", mean)
	}
	if std != d.cfg.minStd() {
		t.Fatalf("std %g, want floored %g for a periodic stream", std, d.cfg.minStd())
	}
}

// TestWindowSlides: the ring buffer must forget samples beyond WindowSize.
func TestWindowSlides(t *testing.T) {
	d := NewDetector(phiCfg(), 1)
	now := 0.0
	// A full window of slow intervals, then more than a window of fast
	// ones: the slow history must age out.
	for i := 0; i < WindowSize; i++ {
		now += 0.5
		d.Heartbeat(0, now)
	}
	for i := 0; i < WindowSize+8; i++ {
		now += 0.05
		d.Heartbeat(0, now)
	}
	mean, _ := d.stats(0)
	if math.Abs(mean-0.05) > 1e-9 {
		t.Fatalf("mean %g still remembers evicted slow intervals", mean)
	}
}

// TestInvNormTail: the rational inverse must actually invert the erfc-based
// tail across the probability range phi thresholds produce.
func TestInvNormTail(t *testing.T) {
	for _, p := range []float64{0.3, 0.1, 1e-2, 1e-4, 1e-8, 1e-12} {
		z := invNormTail(p)
		if got := tailProb(z); math.Abs(got-p) > 1e-6*p+1e-15 {
			t.Errorf("tailProb(invNormTail(%g)) = %g", p, got)
		}
	}
	if !math.IsInf(invNormTail(0), 1) {
		t.Error("invNormTail(0) must be +Inf")
	}
}

// TestInvNormTailDeepTail: probabilities below ~1e-16 — phi thresholds above
// ~16.5 — round 1-p to exactly 1, so the mirrored lower-quantile evaluation
// used to produce sqrt(-2·log(0))/… = NaN and the detector silently never
// suspected. The deep upper tail must stay finite, positive, and monotone
// all the way down.
func TestInvNormTailDeepTail(t *testing.T) {
	prev := 0.0
	for _, p := range []float64{1e-12, 1e-16, 1e-20, 1e-40, 1e-100, 1e-300} {
		z := invNormTail(p)
		if math.IsNaN(z) || math.IsInf(z, 0) {
			t.Fatalf("invNormTail(%g) = %g, want finite", p, z)
		}
		if z <= prev {
			t.Fatalf("invNormTail(%g) = %g not above invNormTail at the larger p (%g)", p, z, prev)
		}
		prev = z
	}
	// A detector with an extreme threshold must still reach suspicion.
	cfg := phiCfg()
	cfg.PhiThreshold = 20
	d := NewDetector(cfg, 1)
	for i := 1; i <= 10; i++ {
		d.Heartbeat(0, float64(i)*0.05)
	}
	at := d.SuspectAt(0)
	if math.IsNaN(at) || math.IsInf(at, 0) {
		t.Fatalf("SuspectAt = %g at threshold 20, want finite", at)
	}
	if !d.Suspect(0, at+1e-9) {
		t.Fatal("detector never suspects at a high threshold")
	}
}
