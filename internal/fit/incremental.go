package fit

import (
	"fmt"
	"math"

	"plbhec/internal/linalg"
)

// NormalEq accumulates the normal equations of a least-squares problem one
// sample at a time: after n calls to Add, ata = XᵀX and aty = Xᵀy for the
// n×p design matrix X whose rows were the added rows. Because each Gram
// entry is a straight sum over samples in insertion order, folding samples
// incrementally (m now, n−m later) produces bit-identical accumulators to
// folding all n in one pass — the property the profiling refit path relies
// on to skip re-reading old samples every round.
type NormalEq struct {
	p   int
	n   int
	ata *linalg.Matrix // p×p Gram matrix XᵀX
	aty linalg.Vector  // Xᵀy
}

// Reset clears the accumulator for a p-coefficient problem, reusing storage.
func (ne *NormalEq) Reset(p int) {
	if ne.ata == nil {
		ne.ata = linalg.NewMatrix(p, p)
	} else {
		ne.ata.Reset(p, p)
	}
	if cap(ne.aty) < p {
		ne.aty = linalg.NewVector(p)
	} else {
		ne.aty = ne.aty[:p]
		for i := range ne.aty {
			ne.aty[i] = 0
		}
	}
	ne.p, ne.n = p, 0
}

// P returns the coefficient count (0 before the first Reset).
func (ne *NormalEq) P() int { return ne.p }

// N returns the number of samples folded in since the last Reset.
func (ne *NormalEq) N() int { return ne.n }

// Add folds one sample (design row, observation y) into the accumulator —
// a rank-1 update of the Gram matrix, O(p²) instead of the O(n·p²) full
// rebuild.
func (ne *NormalEq) Add(row linalg.Vector, y float64) {
	p := ne.p
	if len(row) != p {
		panic(linalg.ErrDimension)
	}
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

// neSolver solves an accumulated normal-equations system with reusable
// scratch, so a warm refit performs zero heap allocations. The Gram matrix
// is Jacobi-equilibrated with power-of-two scale factors before the
// Cholesky factorization: d_j = 2^(−⌊log₂ √G_jj⌋) brings every diagonal
// entry into [1, 4), taming the wild column norms the raw basis functions
// produce (1 vs x³ at x≈10⁶), and because the factors are exact powers of
// two the scaling introduces no rounding of its own — the accumulated Gram
// entries are untouched and the descaled solution is exact in the same
// sense an unscaled solve would be.
type neSolver struct {
	scaled *linalg.Matrix
	chol   linalg.Cholesky
	d      linalg.Vector
	rhs    linalg.Vector
}

// solve computes coef (len p, caller-provided) from the accumulated system.
// It returns linalg.ErrSingular when the equilibrated Gram matrix is not
// positive definite (collinear bases); callers fall back to QR on the full
// design matrix in that case.
func (ws *neSolver) solve(ne *NormalEq, coef linalg.Vector) error {
	p := ne.p
	if len(coef) != p {
		return linalg.ErrDimension
	}
	if ws.scaled == nil {
		ws.scaled = linalg.NewMatrix(p, p)
	} else {
		ws.scaled.Reset(p, p)
	}
	ws.d = resizeZero(ws.d, p)
	ws.rhs = resizeZero(ws.rhs, p)
	for j := 0; j < p; j++ {
		g := ne.ata.At(j, j)
		dj := 1.0
		if g > 0 && !math.IsInf(g, 1) {
			// Exact power of two nearest to 1/√g (by exponent).
			dj = math.Ldexp(1, -math.Ilogb(math.Sqrt(g)))
		}
		ws.d[j] = dj
	}
	for i := 0; i < p; i++ {
		di := ws.d[i]
		src := ne.ata.Data[i*p : (i+1)*p]
		dst := ws.scaled.Data[i*p : (i+1)*p]
		for j := 0; j < p; j++ {
			dst[j] = di * ws.d[j] * src[j]
		}
		ws.rhs[i] = di * ne.aty[i]
	}
	if err := ws.chol.Factor(ws.scaled); err != nil {
		return err
	}
	if err := ws.chol.SolveInto(coef, ws.rhs); err != nil {
		return err
	}
	for i := 0; i < p; i++ {
		coef[i] *= ws.d[i]
	}
	return nil
}

// resizeZero returns v resized to n with every entry zeroed, reusing the
// backing array when capacity allows.
func resizeZero(v linalg.Vector, n int) linalg.Vector {
	if cap(v) < n {
		return linalg.NewVector(n)
	}
	v = v[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}

// setAccum is one candidate basis set's incremental state.
type setAccum struct {
	ne        NormalEq
	scale     float64 // fitting scale the accumulation was built with
	scaleFree bool    // every basis ignores the scale → survives scale moves
}

// Fitter is the incremental engine behind FitSamplesOver: it keeps, per
// candidate basis set, the accumulated normal equations of all samples seen
// so far, so a refit after k new samples costs O(k·p²) rank-1 updates plus
// a p×p solve instead of rebuilding n×p design matrices and QR-factoring
// them from scratch. One Fitter serves one growing sample stream (one
// processing unit's exec or transfer history); create one per stream.
//
// Fit verifies on every call that the previous samples are a prefix of the
// new ones (values compared, not identity) and restarts the accumulation
// transparently when the history was rewritten — Sampler.ScaleTimes and
// seed changes both land on that path. Candidate sets containing
// scale-dependent bases (eˣ, x·eˣ, 1/x) are also rebuilt whenever the
// fitting scale moves; the seven all-scale-free sets accumulate across
// every refit.
//
// The returned Model borrows fitter-owned coefficient storage: it is valid
// until the next Fit/Line call on the same Fitter. Callers that retain
// models across refits must clone Coef (profile.FitAll does).
type Fitter struct {
	xs, ys []float64 // the canonical sample stream folded so far

	sets [][]Basis
	accs []setAccum
	coef []linalg.Vector // per-set persistent coefficient buffers

	line    setAccum  // transfer-line accumulator ({1, x}) for Line
	lxs, ly []float64 // Line's own stream prefix
	lcoef   linalg.Vector

	ws  neSolver
	row linalg.Vector // design-row scratch (max p across sets)
}

// NewFitter returns an empty incremental fitter over the paper's candidate
// basis sets.
func NewFitter() *Fitter {
	f := &Fitter{sets: candidateSets}
	f.accs = make([]setAccum, len(f.sets))
	f.coef = make([]linalg.Vector, len(f.sets))
	maxP := 2
	for i, bases := range f.sets {
		free := true
		for _, b := range bases {
			free = free && b.ScaleFree
		}
		f.accs[i].scaleFree = free
		f.coef[i] = linalg.NewVector(len(bases))
		if len(bases) > maxP {
			maxP = len(bases)
		}
	}
	f.row = linalg.NewVector(maxP)
	f.lcoef = linalg.NewVector(2)
	return f
}

// samePrefix reports whether old is a prefix of cur by value.
func samePrefix(old, cur []float64) bool {
	if len(old) > len(cur) {
		return false
	}
	for i, v := range old {
		if cur[i] != v {
			return false
		}
	}
	return true
}

// Fit is the incremental equivalent of FitSamplesOver(xs, ys, useHi): same
// candidate sets, same selection score, same fallback — only the per-set
// least-squares solve runs on incrementally accumulated normal equations.
// It never returns a model that decreases on [min(xs), useHi]: candidates
// that do are skipped, and when none is left it returns the line with its
// slope floored at 0.
// xs must extend the previously fitted stream (append-only); any other
// change restarts the accumulation automatically.
func (f *Fitter) Fit(xs, ys []float64, useHi float64) (Model, error) {
	if len(xs) != len(ys) {
		return Model{}, fmt.Errorf("fit: len(xs)=%d len(ys)=%d: %w", len(xs), len(ys), ErrTooFewPoints)
	}
	if len(xs) < 2 {
		return Model{}, ErrTooFewPoints
	}
	if !finiteSamples(xs, ys) {
		return Model{}, ErrNonFinite
	}
	scale, spread := sampleScale(xs)
	if !spread {
		return Model{}, ErrDegenerate
	}
	lo, hi := minMax(xs)
	if useHi < hi {
		useHi = hi
	}
	// Same scale rule as FitSamplesOver: exponential bases span the usage
	// horizon, not just the sample range.
	if scale < useHi {
		scale = useHi
	}

	if !samePrefix(f.xs, xs) || !samePrefix(f.ys, ys) {
		// History rewritten (ScaleTimes, new stream): restart everything.
		f.xs, f.ys = f.xs[:0], f.ys[:0]
		for i := range f.accs {
			f.accs[i].ne.p = 0
		}
	}

	var best Model
	bestScore := math.Inf(-1)
	found := false
	for i, bases := range f.sets {
		if len(xs) <= len(bases) {
			// A saturated fit (as many parameters as points) interpolates
			// the noise exactly and extrapolates wildly; skip it.
			continue
		}
		m, err := f.fitSet(i, bases, xs, ys, scale)
		if err != nil {
			continue
		}
		if !m.MonotoneNonDecreasing(lo, useHi) {
			continue
		}
		// Prefer parsimony on near-ties.
		score := m.AdjR2 - 0.002*float64(len(bases))
		if score > bestScore {
			best, bestScore, found = m, score, true
		}
	}

	// Record the stream before returning: the accumulators now cover it.
	f.xs = append(f.xs, xs[len(f.xs):]...)
	f.ys = append(f.ys, ys[len(f.ys):]...)

	if !found {
		// Every candidate was skipped (only 2 points, or none is
		// non-decreasing): fall back to the line, which needs two points
		// and never explodes.
		return risingLine(xs, ys, scale)
	}
	return best, nil
}

// risingLine fits the {1, x} line with its slope floored at 0: where the
// least-squares slope is negative, the best non-decreasing line is the
// constant mean.
func risingLine(xs, ys []float64, scale float64) (Model, error) {
	m, err := fitBasis([]Basis{basisOne, basisX}, xs, ys, scale)
	if err != nil || m.Coef[1] >= 0 {
		return m, err
	}
	var mean float64
	for _, y := range ys {
		mean += y
	}
	m.Coef[0], m.Coef[1] = mean/float64(len(ys)), 0
	m.R2, m.AdjR2 = rsquared(m, xs, ys, 2)
	return m, nil
}

// fitSet updates candidate set i's accumulator with the stream tail and
// solves it. On a normal-equations failure (collinear bases) it falls back
// to the cold QR path over the full design matrix, matching the one-shot
// fit's robustness.
func (f *Fitter) fitSet(i int, bases []Basis, xs, ys []float64, scale float64) (Model, error) {
	acc := &f.accs[i]
	p := len(bases)
	if acc.ne.P() != p || (!acc.scaleFree && acc.scale != scale) {
		acc.ne.Reset(p)
	}
	acc.scale = scale
	row := f.row[:p]
	for k := acc.ne.N(); k < len(xs); k++ {
		for j := range bases {
			row[j] = bases[j].Eval(xs[k], scale)
		}
		acc.ne.Add(row, ys[k])
	}
	coef := f.coef[i]
	if err := f.ws.solve(&acc.ne, coef); err != nil {
		return fitBasis(bases, xs, ys, scale)
	}
	if !coef.IsFinite() {
		return Model{}, ErrDegenerate
	}
	m := Model{Bases: bases, Coef: coef, Scale: scale}
	m.R2, m.AdjR2 = rsquared(m, xs, ys, p)
	return m, nil
}

// Line is the incremental equivalent of FitLinear(xs, ys): the transfer
// model G_p = a₁·x + a₂ solved from accumulated normal equations. It keeps
// its own stream prefix, independent of Fit's.
func (f *Fitter) Line(xs, ys []float64) (Linear, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Linear{}, ErrTooFewPoints
	}
	if !finiteSamples(xs, ys) {
		return Linear{}, ErrNonFinite
	}
	scale, spread := sampleScale(xs)
	if !spread {
		return Linear{}, ErrDegenerate
	}
	if !samePrefix(f.lxs, xs) || !samePrefix(f.ly, ys) {
		f.lxs, f.ly = f.lxs[:0], f.ly[:0]
		f.line.ne.p = 0
	}
	if f.line.ne.P() != 2 {
		f.line.ne.Reset(2)
	}
	row := f.row[:2]
	for k := f.line.ne.N(); k < len(xs); k++ {
		row[0], row[1] = 1, xs[k]
		f.line.ne.Add(row, ys[k])
	}
	f.lxs = append(f.lxs, xs[len(f.lxs):]...)
	f.ly = append(f.ly, ys[len(f.ly):]...)
	if err := f.ws.solve(&f.line.ne, f.lcoef); err != nil {
		// Collinear fallback, mirroring FitLinear's QR robustness.
		m, err2 := fitBasis([]Basis{basisOne, basisX}, xs, ys, scale)
		if err2 != nil {
			return Linear{}, err2
		}
		return Linear{A1: m.Coef[1], A2: m.Coef[0], R2: m.R2}, nil
	}
	if !f.lcoef.IsFinite() {
		return Linear{}, ErrDegenerate
	}
	m := Model{Bases: lineBases(), Coef: f.lcoef, Scale: scale}
	r2, _ := rsquared(m, xs, ys, 2)
	return Linear{A1: f.lcoef[1], A2: f.lcoef[0], R2: r2}, nil
}

// lineBases returns the {1, x} basis pair without allocating per call.
var lineBasesVal = []Basis{basisOne, basisX}

func lineBases() []Basis { return lineBasesVal }
