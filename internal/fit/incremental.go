package fit

import (
	"fmt"
	"math"
	"slices"

	"plbhec/internal/linalg"
)

// Fitter is the incremental engine behind FitSamplesOver. It keeps the
// normal equations XᵀX, Xᵀy of all samples seen so far over the nine bases
// every candidate set draws from, packed as one lower triangle, so a refit
// after k new samples costs k evaluations of each basis and k rank-1
// updates, plus one gathered p×p solve per candidate set, instead of
// rebuilding n×p design matrices and QR-factoring them from scratch. One
// Fitter serves one growing sample stream (one processing unit's exec and
// transfer history); its zero value is ready to use.
//
// Each Gram entry is a straight sum over samples in insertion order, so
// folding samples incrementally produces bit-identical sums to folding
// them in one pass, and a set's gathered system is bit-identical to
// accumulating that set alone.
//
// Fit verifies on every call that the previous samples are a prefix of the
// new ones (values compared, not identity) and restarts the accumulation
// transparently when the history was rewritten: Sampler.ScaleTimes and
// seed changes both land on that path. When the fitting scale moves, only
// the rows of the bases that read it (eˣ, x·eˣ, 1/x) are rebuilt.
type Fitter struct {
	xs, ys []float64 // the exec stream folded so far
	// ata holds XᵀX's lower triangle, entry (a, b) at tri(a, b), over
	// basisTable; aty holds Xᵀy.
	ata   [nBases * (nBases + 1) / 2]float64
	aty   [nBases]float64
	scale float64 // the scale the rows from firstScaled on were built with

	lxs, lys []float64 // Line's own stream prefix
	// lata and laty are Line's {1, x} system, packed the same way.
	lata [3]float64
	laty [2]float64
}

// Workspace is the solve scratch of Fitter.Fit and Fitter.Line: every
// sample's basis values, the equilibrated Cholesky solve, the
// least-squares fallback of the line fits, the coefficient buffers, and
// the slab the Fitters' stream copies grow into.
// Fits sharing a Workspace must run one at a time; one Workspace serves
// any number of Fitters. The zero value is ready to use, and once its
// buffers have grown to the largest stream a refit allocates nothing.
type Workspace struct {
	// vals holds the basis values of the samples being fitted, one row of
	// stride values per sample, basis b in column col[b] (see at); mean
	// and ssTot are the observations' mean and total sum of squares.
	vals        []float64
	stride      int
	col         [nBases]int
	mean, ssTot float64
	ssr         float64 // the residual sum of squares of Fit's last model
	// ends holds the bases at the two ends of the range Fit checks each
	// candidate's monotonicity over.
	ends rangeEnds

	eq     [nBases]float64 // each basis's scale factor (see equilibrate)
	d, rhs [MaxCoef]float64
	scaled linalg.Matrix
	chol   linalg.Cholesky
	design linalg.Matrix
	lsq    linalg.LeastSquares
	// coef holds the best candidate's coefficients so far and the current
	// trial's; Fit swaps them when the trial wins.
	coef  [2][MaxCoef]float64
	lcoef [2]float64
	// slab is the unused storage the Fitters' stream copies grow into.
	slab []float64
}

// StreamGrowth returns how many floats f's copies of its exec and transfer
// streams take from a Workspace to hold n and ln samples.
func (f *Fitter) StreamGrowth(n, ln int) int {
	return growth(f.xs, n) + growth(f.ys, n) + growth(f.lxs, ln) + growth(f.lys, ln)
}

// growth is the storage extend takes for a copy to hold n samples.
func growth(c []float64, n int) int {
	if cap(c) < n {
		return 2 * n
	}
	return 0
}

// ReserveStreams makes ws hold k floats for stream copies, so Fitters
// whose StreamGrowth sums to k grow into one slab instead of one slice
// per stream.
func (ws *Workspace) ReserveStreams(k int) {
	if len(ws.slab) < k {
		ws.slab = make([]float64, k)
	}
}

// extend returns old, a prefix of cur, extended to cur. Storage that must
// grow takes growth(old, len(cur)) floats from the slab.
func (ws *Workspace) extend(old, cur []float64) []float64 {
	if k := growth(old, len(cur)); k > 0 {
		ws.ReserveStreams(k)
		old = append(ws.slab[:0:k], old...)
		ws.slab = ws.slab[k:]
	}
	return append(old, cur[len(old):]...)
}

// tri is the packed index of Gram entry (a, b), a ≥ b.
func tri(a, b int) int { return a*(a+1)/2 + b }

// fold adds one sample, with basis values v and observation y, to the
// packed normal equations (ata, aty) over len(v) bases, in rows from on.
func fold(ata, aty, v []float64, y float64, from int) {
	k := tri(from, 0)
	for i := from; i < len(v); i++ {
		vi := v[i]
		for _, vj := range v[:i+1] {
			ata[k] += vi * vj
			k++
		}
		aty[i] += vi * y
	}
}

// tabulate fills ws.vals with the basis values of xs at scale: every
// basis of basisTable, in its order, when c is nil, else only c's. It
// also sums ys into ws.mean and ws.ssTot, so that score can rate any
// candidate from them.
func (ws *Workspace) tabulate(c *candidate, xs, ys []float64, scale float64) {
	ws.stride = nBases
	if c != nil {
		ws.stride = len(c.idx)
	}
	// slices.Grow grows by doubling, as the streams grow a sample at a
	// time.
	n := len(xs) * ws.stride
	ws.vals = slices.Grow(ws.vals[:0], n)[:n]
	if c == nil {
		for b := range ws.col {
			ws.col[b] = b
		}
		for k, x := range xs {
			evalBases((*[nBases]float64)(ws.row(k)), x, scale)
		}
	} else {
		for j, b := range c.idx {
			ws.col[b] = j
			for k, x := range xs {
				ws.vals[k*ws.stride+j] = basisTable[b].Eval(x, scale)
			}
		}
	}
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssTot float64
	for _, y := range ys {
		t := y - mean
		ssTot += t * t
	}
	ws.mean, ws.ssTot = mean, ssTot
}

// equilibrate computes the scale factor of each of the first n bases of
// the packed Gram matrix ata, for solve: d_a = 2^(−⌊log₂ √G_aa⌋), the
// exact power of two nearest to 1/√G_aa by exponent, or 1 where G_aa is
// not positive and finite.
func (ws *Workspace) equilibrate(ata []float64, n int) {
	for a := range ws.eq[:n] {
		ws.eq[a] = 1
		if g := ata[tri(a, a)]; g > 0 && !math.IsInf(g, 1) {
			ws.eq[a] = math.Ldexp(1, -math.Ilogb(math.Sqrt(g)))
		}
	}
}

// solve solves the normal equations of the bases idx, gathered from the
// packed (ata, aty), into coef. The gathered Gram matrix is
// Jacobi-equilibrated with the power-of-two scale factors equilibrate
// last computed, which must be ata's, before the Cholesky factorization:
// they bring every diagonal entry into [1, 4), taming the wild column
// norms the raw basis functions produce (1 vs x³ at x≈10⁶), and because
// they are exact powers of two the scaling introduces no rounding of its
// own. It returns linalg.ErrSingular when the equilibrated matrix is not
// positive definite (collinear bases).
func (ws *Workspace) solve(idx []int, ata, aty []float64, coef linalg.Vector) error {
	p := len(idx)
	d, rhs := ws.d[:p], ws.rhs[:p]
	for j, a := range idx {
		d[j] = ws.eq[a]
	}
	// Cholesky reads only the lower triangle, and idx ascends, so a ≥ b.
	s := ws.scaled.Reset(p, p)
	for i, a := range idx {
		for j, b := range idx[:i+1] {
			s.Data[i*p+j] = d[i] * d[j] * ata[tri(a, b)]
		}
		rhs[i] = d[i] * aty[a]
	}
	if err := ws.chol.Factor(s); err != nil {
		return err
	}
	if err := ws.chol.SolveInto(coef, rhs); err != nil {
		return err
	}
	for i := range coef {
		coef[i] *= d[i]
	}
	return nil
}

// lstsq fits candidate c by QR least squares on the n×p design matrix
// gathered from ws.vals, retrying with a ridge penalty when it is
// rank-deficient. It returns the scored model and its residual sum of
// squares.
func (ws *Workspace) lstsq(c *candidate, coef linalg.Vector, ys []float64, scale float64) (Model, float64, error) {
	a := ws.design.Reset(len(ys), len(c.idx))
	for i := range ys {
		for j, b := range c.idx {
			a.Set(i, j, ws.at(i, b))
		}
	}
	if err := ws.lsq.SolveInto(coef, a, linalg.Vector(ys)); err != nil {
		return Model{}, 0, err
	}
	var m Model
	ssr, err := ws.newModel(&m, c, coef, ys, scale)
	return m, ssr, err
}

// newModel sets m to candidate c with the solved coefficients coef,
// scored, and returns its residual sum of squares.
func (ws *Workspace) newModel(m *Model, c *candidate, coef linalg.Vector, ys []float64, scale float64) (float64, error) {
	if !coef.IsFinite() {
		return 0, ErrDegenerate
	}
	// Field by field: a composite literal would copy the whole Model.
	m.Bases, m.Coef, m.Scale = c.bases, coef, scale
	return ws.score(m, c.idx, ys), nil
}

// score sets m's R² and adjusted R² on the samples and returns its
// residual sum of squares, from the basis values in ws.vals. Each
// prediction sums the terms in Model.Eval's order, so every figure is
// bit-identical to one computed from m.Eval.
func (ws *Workspace) score(m *Model, idx []int, ys []float64) float64 {
	var ssRes float64
	for k, y := range ys {
		var pred float64
		for j, b := range idx {
			pred += m.Coef[j] * ws.at(k, b)
		}
		d := y - pred
		ssRes += d * d
	}
	if ws.ssTot == 0 {
		// All y equal: a perfect fit has no residual; call it 1.
		if ssRes < 1e-18 {
			m.R2, m.AdjR2 = 1, 1
		} else {
			m.R2, m.AdjR2 = 0, 0
		}
		return ssRes
	}
	m.R2 = 1 - ssRes/ws.ssTot
	n := float64(len(ys))
	if den := n - float64(len(idx)) - 1; den > 0 {
		m.AdjR2 = 1 - (1-m.R2)*(n-1)/den
	} else {
		m.AdjR2 = m.R2
	}
	return ssRes
}

// SSR returns the residual sum of squares, over its samples, of the model
// the last Fitter.Fit with ws returned. Line leaves it alone.
func (ws *Workspace) SSR() float64 { return ws.ssr }

// at is basis b's tabulated value at sample k.
func (ws *Workspace) at(k, b int) float64 { return ws.vals[k*ws.stride+ws.col[b]] }

// row is sample k's tabulated values.
func (ws *Workspace) row(k int) []float64 { return ws.vals[k*ws.stride : (k+1)*ws.stride] }

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
// candidate sets, same selection score, same fallback; only the per-set
// least-squares solve runs on incrementally accumulated normal equations.
// It never returns a model that decreases on [min(xs), useHi]: candidates
// that do are skipped, and when none is left it returns the line with its
// slope floored at 0.
// xs must extend the previously fitted stream (append-only); any other
// change restarts the accumulation automatically.
//
// The returned Model's Coef is ws storage: it is valid until the next Fit
// or Line call with ws. Callers that retain models must copy it
// (profile.Sampler.FitLive does).
func (f *Fitter) Fit(ws *Workspace, xs, ys []float64, useHi float64) (Model, error) {
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
		f.ata, f.aty = [len(f.ata)]float64{}, [nBases]float64{}
	}
	// Every basis is evaluated once per sample and fit: the folds below
	// and every candidate's score read these values.
	ws.tabulate(nil, xs, ys, scale)
	if scale != f.scale {
		clear(f.ata[tri(firstScaled, 0):])
		clear(f.aty[firstScaled:])
		for k := range f.xs {
			fold(f.ata[:], f.aty[:], ws.row(k), ys[k], firstScaled)
		}
		f.scale = scale
	}
	for k := len(f.xs); k < len(xs); k++ {
		fold(f.ata[:], f.aty[:], ws.row(k), ys[k], 0)
	}
	f.xs, f.ys = ws.extend(f.xs, xs), ws.extend(f.ys, ys)

	ws.ends.set(lo, useHi, scale)
	ws.equilibrate(f.ata[:], nBases)
	var best Model
	bestScore := math.Inf(-1)
	found := false
	trial, kept := ws.coef[0][:], ws.coef[1][:]
	for i := range candidates {
		c := &candidates[i]
		p := len(c.idx)
		if len(xs) <= p {
			// A saturated fit (as many parameters as points) interpolates
			// the noise exactly and extrapolates wildly; skip it.
			continue
		}
		// Singular normal equations mean collinear bases over these
		// samples: the set adds little a smaller one lacks, and its
		// least-squares refit was almost never the best candidate, so
		// it is skipped.
		if ws.solve(c.idx, f.ata[:], f.aty[:], trial[:p]) != nil {
			continue
		}
		var m Model
		ssr, err := ws.newModel(&m, c, trial[:p], ys, scale)
		if err != nil {
			continue
		}
		if !m.monotone(lo, useHi, &ws.ends) {
			continue
		}
		// Prefer parsimony on near-ties.
		score := m.AdjR2 - 0.002*float64(p)
		if score > bestScore {
			best, bestScore, ws.ssr, found = m, score, ssr, true
			trial, kept = kept, trial
		}
	}
	if !found {
		// Every candidate was skipped (only 2 points, or none is
		// non-decreasing): fall back to the line, which needs two points
		// and never explodes.
		return ws.risingLine(ys, scale)
	}
	return best, nil
}

// risingLine fits the {1, x} line with its slope floored at 0: where the
// least-squares slope is negative, the best non-decreasing line is the
// constant mean. ws.vals must hold the line's basis values.
func (ws *Workspace) risingLine(ys []float64, scale float64) (Model, error) {
	m, ssr, err := ws.lstsq(lineSet, ws.lcoef[:], ys, scale)
	if err != nil {
		return m, err
	}
	if m.Coef[1] < 0 {
		m.Coef[0], m.Coef[1] = ws.mean, 0
		ssr = ws.score(&m, lineSet.idx, ys)
	}
	ws.ssr = ssr
	return m, nil
}

// Line is the incremental equivalent of FitLinear(xs, ys): the transfer
// model G_p = a₁·x + a₂ solved from accumulated normal equations. It keeps
// its own stream prefix, independent of Fit's.
func (f *Fitter) Line(ws *Workspace, xs, ys []float64) (Linear, error) {
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
	if !samePrefix(f.lxs, xs) || !samePrefix(f.lys, ys) {
		f.lxs, f.lys = f.lxs[:0], f.lys[:0]
		f.lata, f.laty = [3]float64{}, [2]float64{}
	}
	ws.tabulate(lineSet, xs, ys, scale)
	for k := len(f.lxs); k < len(xs); k++ {
		fold(f.lata[:], f.laty[:], ws.row(k), ys[k], 0)
	}
	f.lxs, f.lys = ws.extend(f.lxs, xs), ws.extend(f.lys, ys)
	// Singular normal equations (collinear samples) fall back to least
	// squares on the design matrix.
	var m Model
	var err error
	ws.equilibrate(f.lata[:], len(lineSet.idx))
	if ws.solve(lineSet.idx, f.lata[:], f.laty[:], ws.lcoef[:]) != nil {
		m, _, err = ws.lstsq(lineSet, ws.lcoef[:], ys, scale)
	} else {
		_, err = ws.newModel(&m, lineSet, ws.lcoef[:], ys, scale)
	}
	if err != nil {
		return Linear{}, err
	}
	return Linear{A1: m.Coef[1], A2: m.Coef[0], R2: m.R2}, nil
}
