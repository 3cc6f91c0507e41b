package fit

import (
	"math"
	"math/rand"
	"testing"

	"plbhec/internal/linalg"
)

// synthSamples builds a smooth, realistic time-vs-size curve.
func synthSamples(n int) (xs, ys []float64) {
	for i := 0; i < n; i++ {
		x := float64(i+1) * 137
		xs = append(xs, x)
		ys = append(ys, 0.8+0.003*x+2e-7*x*x)
	}
	return
}

// collinearSamples is a stream like the scale10k refits' on which some
// candidate sets' normal equations are singular: blocks far below a
// horizon of 1e7 units, so every 1/x value sits at its clamp, and
// e^{x/s} ≈ 1 + x/s is linear.
func collinearSamples() (xs, ys []float64, horizon float64) {
	for x := 16.0; x <= 2048; x *= 2 {
		xs = append(xs, x, x*1.5)
		ys = append(ys, 0.02+3e-4*x, 0.021+3e-4*x*1.5)
	}
	return xs, ys, 1e7
}

// NormalEq is the per-set accumulator the Fitter's shared Gram replaced,
// kept as its oracle: after n calls to Add, ata = XᵀX and aty = Xᵀy for
// the n×p design matrix X whose rows were the added rows.
type NormalEq struct {
	p   int
	n   int
	ata *linalg.Matrix // p×p Gram matrix XᵀX
	aty linalg.Vector  // Xᵀy
}

// Reset clears the accumulator for a p-coefficient problem.
func (ne *NormalEq) Reset(p int) {
	ne.ata = linalg.NewMatrix(p, p)
	ne.aty = linalg.NewVector(p)
	ne.p, ne.n = p, 0
}

// Add folds one sample (design row, observation y) into the accumulator.
func (ne *NormalEq) Add(row linalg.Vector, y float64) {
	p := ne.p
	for i := 0; i < p; i++ {
		ri := row[i]
		gi := ne.ata.Data[i*p : (i+1)*p]
		for j := 0; j < p; j++ {
			gi[j] += ri * row[j]
		}
		ne.aty[i] += ri * y
	}
	ne.n++
}

// setNormalEq accumulates candidate c's normal equations from scratch.
func setNormalEq(c *candidate, xs, ys []float64, scale float64) *NormalEq {
	var ne NormalEq
	ne.Reset(len(c.bases))
	row := linalg.NewVector(len(c.bases))
	for k, x := range xs {
		for j, b := range c.bases {
			row[j] = b.Eval(x, scale)
		}
		ne.Add(row, ys[k])
	}
	return &ne
}

// TestNormalEqMatchesDirect checks the accumulator against a directly
// computed XᵀX / Xᵀy.
func TestNormalEqMatchesDirect(t *testing.T) {
	xs, ys := synthSamples(7)
	bases := []Basis{basisOne, basisX, basisX2}
	var ne NormalEq
	ne.Reset(3)
	row := linalg.NewVector(3)
	for k := range xs {
		for j, b := range bases {
			row[j] = b.Eval(xs[k], 1000)
		}
		ne.Add(row, ys[k])
	}
	if ne.n != len(xs) || ne.p != 3 {
		t.Fatalf("n=%d p=%d", ne.n, ne.p)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var want float64
			for k := range xs {
				want += bases[i].Eval(xs[k], 1000) * bases[j].Eval(xs[k], 1000)
			}
			if got := ne.ata.At(i, j); got != want {
				t.Errorf("ata[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
		var want float64
		for k := range xs {
			want += bases[i].Eval(xs[k], 1000) * ys[k]
		}
		if got := ne.aty[i]; got != want {
			t.Errorf("aty[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestIncrementalMatchesBatch is the core invariant: a Fitter fed the
// stream incrementally (refitting after every new sample) must produce the
// exact same model as a fresh Fitter fed everything at once — bit-identical
// coefficients, not just close ones, because both fold the same samples in
// the same order into the same accumulators.
func TestIncrementalMatchesBatch(t *testing.T) {
	xs, ys := synthSamples(12)
	var inc Fitter
	var ws Workspace
	const horizon = 50000.0
	for n := 3; n <= len(xs); n++ {
		mi, err := inc.Fit(&ws, xs[:n], ys[:n], horizon)
		if err != nil {
			t.Fatalf("incremental fit at n=%d: %v", n, err)
		}
		mb, err := FitSamplesOver(xs[:n], ys[:n], horizon)
		if err != nil {
			t.Fatalf("batch fit at n=%d: %v", n, err)
		}
		if len(mi.Coef) != len(mb.Coef) {
			t.Fatalf("n=%d: set mismatch: %v vs %v", n, mi, mb)
		}
		for j := range mi.Coef {
			if mi.Coef[j] != mb.Coef[j] {
				t.Errorf("n=%d coef[%d]: incremental %v != batch %v",
					n, j, mi.Coef[j], mb.Coef[j])
			}
		}
		if mi.R2 != mb.R2 || mi.Scale != mb.Scale {
			t.Errorf("n=%d: R2/Scale mismatch: %v vs %v", n, mi, mb)
		}
	}
}

// TestFitterHistoryRewrite: rescaling the sample history (what
// profile.Sampler.ScaleTimes does on a QoS change) must transparently
// restart the accumulation and still match a batch fit.
func TestFitterHistoryRewrite(t *testing.T) {
	xs, ys := synthSamples(8)
	var f Fitter
	var ws Workspace
	if _, err := f.Fit(&ws, xs, ys, 20000); err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(ys))
	for i, y := range ys {
		scaled[i] = y * 2.5
	}
	mi, err := f.Fit(&ws, xs, scaled, 20000)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := FitSamplesOver(xs, scaled, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for j := range mi.Coef {
		if mi.Coef[j] != mb.Coef[j] {
			t.Errorf("coef[%d]: %v != %v after history rewrite", j, mi.Coef[j], mb.Coef[j])
		}
	}
}

// TestFitterLine checks the incremental transfer fit against the
// closed-form least-squares line.
func TestFitterLine(t *testing.T) {
	xs := []float64{100, 250, 400, 800, 1600}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3e-6*x + 0.002
	}
	var f Fitter
	var ws Workspace
	for n := 2; n <= len(xs); n++ {
		l, err := f.Line(&ws, xs[:n], ys[:n])
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if math.Abs(l.A1-3e-6) > 1e-12 || math.Abs(l.A2-0.002) > 1e-9 {
			t.Errorf("n=%d: got a1=%v a2=%v", n, l.A1, l.A2)
		}
	}
}

// TestWarmRefitZeroAlloc enforces the hot-path invariant: once a Fitter
// has seen a stream, refitting it (the per-round profiling refit) performs
// zero heap allocations. That holds on the three paths scale10k takes: a
// well-conditioned stream; a collinear one, whose {1, x, 1/x} and
// {1, x, eˣ} normal equations are singular, so Fit skips those sets; and
// a horizon that shrinks on every refit, as the remaining work does, so
// the scale rows are rebuilt each time.
func TestWarmRefitZeroAlloc(t *testing.T) {
	smooth, smoothY := synthSamples(10)
	flat, flatY, far := collinearSamples()
	// The collinear stream's {1, x, 1/x} system must really be singular.
	var probe Fitter
	var ws Workspace
	if _, err := probe.Fit(&ws, flat, flatY, far); err != nil {
		t.Fatal(err)
	}
	inv := setOf(bOne, bX, bInv)
	if ws.solve(inv.idx, probe.ata[:], probe.aty[:], ws.coef[0][:3]) == nil {
		t.Fatal("the collinear stream's {1, x, 1/x} normal equations solved; want them singular")
	}
	txs := []float64{128, 256, 512, 1024}
	tys := []float64{0.001, 0.0018, 0.0034, 0.0066}
	for _, tc := range []struct {
		name    string
		xs, ys  []float64
		horizon func(i int) float64
	}{
		{"smooth", smooth, smoothY, func(int) float64 { return 30000 }},
		{"collinear", flat, flatY, func(int) float64 { return far }},
		{"shrinking horizon", flat, flatY, func(i int) float64 { return far * math.Pow(0.99, float64(i)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var f Fitter
			i := 0
			refit := func() {
				if _, err := f.Fit(&ws, tc.xs, tc.ys, tc.horizon(i)); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Line(&ws, txs, tys); err != nil {
					t.Fatal(err)
				}
				i++
			}
			refit()
			if allocs := testing.AllocsPerRun(100, refit); allocs != 0 {
				t.Fatalf("warm refit allocates %v times per round, want 0", allocs)
			}
		})
	}
}

// TestWarmGrowthConstantAlloc: growing a stream by one sample per refit
// folds only the new sample, a moved fitting scale rebuilds only the rows
// from firstScaled on, and once the Fitter's copy of the stream and the
// workspace have reached the stream's length, the growth allocates nothing.
func TestWarmGrowthConstantAlloc(t *testing.T) {
	xs, ys := synthSamples(64)
	var f Fitter
	var ws Workspace
	fit := func(n int, horizon float64) {
		t.Helper()
		if _, err := f.Fit(&ws, xs[:n], ys[:n], horizon); err != nil {
			t.Fatal(err)
		}
	}
	// Sentinels: a delta planted in a Gram entry survives every refit that
	// folds only new samples into that row, and is gone once the row is
	// rebuilt. The entries are sums of integers, so every sum is exact.
	const delta = 1 << 20
	free, scaled := tri(bX, bOne), tri(bExp, bOne)
	fit(8, 30000)
	want := f.ata[free] + delta
	f.ata[free] = want
	f.ata[scaled] += delta
	wantScaled := f.ata[scaled] + basisTable[bExp].Eval(xs[8], 30000)
	fit(9, 30000)
	if want += xs[8]; f.ata[free] != want {
		t.Fatalf("after one new sample Σx = %v, want %v: the refit rebuilt instead of folding one row", f.ata[free], want)
	}
	if f.ata[scaled] != wantScaled {
		t.Fatalf("after one new sample at the same scale Σeˣ = %v, want %v: the refit rebuilt the eˣ row", f.ata[scaled], wantScaled)
	}
	f.ata[scaled] += delta
	fit(10, 40000) // the horizon moves the fitting scale
	if want += xs[9]; f.ata[free] != want {
		t.Fatalf("after a scale move Σx = %v, want %v: the move rebuilt a scale-free row", f.ata[free], want)
	}
	var fresh Fitter
	if _, err := fresh.Fit(new(Workspace), xs[:10], ys[:10], 40000); err != nil {
		t.Fatal(err)
	}
	if f.ata[scaled] != fresh.ata[scaled] {
		t.Fatalf("after a scale move Σeˣ = %v, want %v: the eˣ row was not rebuilt", f.ata[scaled], fresh.ata[scaled])
	}

	grow := func() {
		// The first refit of each pass restarts the stream, keeping storage.
		for n := 8; n <= len(xs); n++ {
			fit(n, 30000)
		}
	}
	grow()
	if allocs := testing.AllocsPerRun(10, grow); allocs != 0 {
		t.Fatalf("growing a warm stream allocates %v times, want 0", allocs)
	}
}

// TestGramMatchesPerSetAccumulators is the shared Gram's bit-identity
// property. Over random append-only streams, with ScaleTimes-style
// rewrites of the history and a horizon that moves on most refits, every
// candidate set's system gathered from the packed Gram must equal a
// from-scratch NormalEq over that set's bases bit for bit, and a Fitter
// reused across streams and sharing its Workspace must return the same
// model, to the bit, as a fresh Fitter with a fresh Workspace.
func TestGramMatchesPerSetAccumulators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ws Workspace
	fitters := make([]Fitter, 3)
	bits := math.Float64bits
	for trial := 0; trial < 60; trial++ {
		f := &fitters[rng.Intn(len(fitters))]
		rate, lat := 1e-4*(1+rng.Float64()), 0.01*rng.Float64()
		var xs, ys []float64
		horizon := math.Pow(10, 3+4*rng.Float64())
		for step := 0; step < 20; step++ {
			switch r := rng.Intn(10); {
			case r < 6 || len(xs) < 2:
				x := math.Round(math.Pow(2, 3+8*rng.Float64()))
				xs = append(xs, x)
				ys = append(ys, lat+rate*x*(1+0.05*rng.NormFloat64()))
			case r < 8:
				// ScaleTimes: the whole history is rewritten.
				k := 0.5 + rng.Float64()
				for i := range ys {
					ys[i] *= k
				}
			}
			if rng.Intn(4) > 0 {
				horizon *= 0.5 + rng.Float64()
			}
			m, err := f.Fit(&ws, xs, ys, horizon)
			if len(xs) < 2 {
				continue
			}
			for i := range candidates {
				c := &candidates[i]
				ne := setNormalEq(c, xs, ys, f.scale)
				for r, a := range c.idx {
					for q, b := range c.idx[:r+1] {
						if got, want := f.ata[tri(a, b)], ne.ata.At(r, q); bits(got) != bits(want) {
							t.Fatalf("trial %d step %d set %d: Gram[%d][%d] = %v, want %v", trial, step, i, r, q, got, want)
						}
					}
					if got, want := f.aty[a], ne.aty[r]; bits(got) != bits(want) {
						t.Fatalf("trial %d step %d set %d: Xᵀy[%d] = %v, want %v", trial, step, i, r, got, want)
					}
				}
			}
			var fresh Fitter
			mf, errF := fresh.Fit(new(Workspace), xs, ys, horizon)
			if (err == nil) != (errF == nil) {
				t.Fatalf("trial %d step %d: reused err %v, fresh err %v", trial, step, err, errF)
			}
			if err != nil {
				continue
			}
			same := len(m.Coef) == len(mf.Coef) && bits(m.R2) == bits(mf.R2) &&
				bits(m.AdjR2) == bits(mf.AdjR2) && bits(m.Scale) == bits(mf.Scale)
			for j := 0; same && j < len(m.Coef); j++ {
				same = m.Bases[j].Name == mf.Bases[j].Name && bits(m.Coef[j]) == bits(mf.Coef[j])
			}
			if !same {
				t.Fatalf("trial %d step %d: reused Fitter %v, fresh %v", trial, step, m, mf)
			}
		}
	}
}

// rsquared is the scoring the Workspace's tabulated basis values replaced,
// kept as its oracle: R², adjusted R² and the residual sum of squares of
// model m on the samples, each prediction from m.Eval.
func rsquared(m Model, xs, ys []float64, p int) (r2, adj, ssRes float64) {
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssTot float64
	for i, x := range xs {
		d := ys[i] - m.Eval(x)
		ssRes += d * d
		t := ys[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		// All y equal: a perfect fit has no residual; call it 1.
		if ssRes < 1e-18 {
			return 1, 1, ssRes
		}
		return 0, 0, ssRes
	}
	r2 = 1 - ssRes/ssTot
	n := float64(len(xs))
	den := n - float64(p) - 1
	if den <= 0 {
		return r2, r2, ssRes
	}
	adj = 1 - (1-r2)*(n-1)/den
	return r2, adj, ssRes
}

// TestScoreMatchesOracle: the R², adjusted R² and residual sum of squares
// Fitter.Fit and Fitter.Line report equal rsquared's bit for bit, on
// random append-only streams with history rewrites and a moving horizon,
// on TestWarmRefitZeroAlloc's smooth, collinear and shrinking-horizon
// streams, and on falling samples, where Fit returns the rising line.
func TestScoreMatchesOracle(t *testing.T) {
	bits := math.Float64bits
	var ws Workspace
	check := func(name string, f *Fitter, xs, ys []float64, horizon float64) {
		t.Helper()
		m, err := f.Fit(&ws, xs, ys, horizon)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r2, adj, ss := rsquared(m, xs, ys, len(m.Coef))
		if bits(m.R2) != bits(r2) || bits(m.AdjR2) != bits(adj) || bits(ws.SSR()) != bits(ss) {
			t.Fatalf("%s: %v scores R² %v, adj %v, SSR %v; the oracle %v, %v, %v", name, m, m.R2, m.AdjR2, ws.SSR(), r2, adj, ss)
		}
		txs, tys := xs, make([]float64, len(ys))
		for i, y := range ys {
			tys[i] = 1e-3 * y
		}
		l, err := f.Line(&ws, txs, tys)
		if err != nil {
			t.Fatalf("%s: line: %v", name, err)
		}
		lm := Model{Bases: lineSet.bases, Coef: linalg.Vector{l.A2, l.A1}, Scale: 1}
		if r2, _, _ := rsquared(lm, txs, tys, 2); bits(l.R2) != bits(r2) {
			t.Fatalf("%s: line R² %v, the oracle %v", name, l.R2, r2)
		}
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		var f Fitter
		rate, lat := 1e-4*(1+rng.Float64()), 0.01*rng.Float64()
		var xs, ys []float64
		horizon := math.Pow(10, 3+4*rng.Float64())
		for step := 0; step < 16; step++ {
			if rng.Intn(5) > 0 || len(xs) < 2 {
				x := math.Round(math.Pow(2, 3+8*rng.Float64()))
				xs = append(xs, x)
				ys = append(ys, lat+rate*x*(1+0.05*rng.NormFloat64()))
			} else {
				for i := range ys {
					ys[i] *= 0.5 + rng.Float64()
				}
			}
			if rng.Intn(4) > 0 {
				horizon *= 0.5 + rng.Float64()
			}
			if len(xs) >= 2 {
				check("random", &f, xs, ys, horizon)
			}
		}
	}

	smooth, smoothY := synthSamples(10)
	flat, flatY, far := collinearSamples()
	var f Fitter
	check("smooth", &f, smooth, smoothY, 30000)
	f = Fitter{}
	check("collinear", &f, flat, flatY, far)
	f = Fitter{}
	for i := 0; i < 20; i++ {
		check("shrinking horizon", &f, flat, flatY, far*math.Pow(0.99, float64(i)))
	}
	xs := linspace(8, 512, 8)
	f = Fitter{}
	check("falling", &f, xs, apply(xs, func(x float64) float64 { return 10 - 0.01*x }), 4096)
}
