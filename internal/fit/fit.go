// Package fit implements the performance-model curve fitting of the paper's
// §III.B: least-squares fits of the per-unit execution-time function F_p[x]
// over the basis set {ln x, x, x², x³, eˣ, x·eˣ, x·ln x} (Eq. 1), selected
// by coefficient of determination, and the linear transfer-time function
// G_p[x] = a₁·x + a₂ (Eq. 2).
//
// Fitter.Fit solves each candidate set's normal equations and skips a set
// whose equations are singular. QR least squares (lstsq) remains on three
// paths only: Fitter.Line when the transfer line's normal equations are
// singular, the rising-line fallback of Fit when no candidate set is
// usable, and FitLogCurve, HDSS's weight curve.
package fit

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"plbhec/internal/linalg"
)

// ErrTooFewPoints is returned when fewer samples than coefficients are
// supplied.
var ErrTooFewPoints = errors.New("fit: too few points")

// ErrNonFinite is returned when a sample is NaN or ±Inf — corrupted
// profile streams classify here instead of poisoning the normal equations
// and the fitted curves downstream.
var ErrNonFinite = errors.New("fit: non-finite sample")

// ErrDegenerate is returned when the samples carry no usable signal (e.g.
// all x equal).
var ErrDegenerate = errors.New("fit: degenerate sample set")

// Basis is one term of Eq. 1. Eval receives the raw block size x and the
// fitting scale s (the largest sampled x); exponential bases use x/s so
// they stay bounded over the sampled range. Slope is Eval's derivative in
// x. Clamp returns the point below which Eval holds its argument at a
// floor, or 0 for a basis without one: Eval is constant there, so Slope
// jumps at the clamp. Each method switches on the basis's index in
// basisTable.
type Basis struct {
	Name string
	id   int
}

// The paper's basis set. Log bases clamp x to a tiny positive value so that
// evaluation at x=0 stays finite (a zero-size block takes ~0 time anyway).
// The 1/x floor is relative to the fitting scale s: an absolute 1e-9
// floor put a 1e9 entry in the design matrix at x=0, wrecking the
// normal-equations conditioning for the {1, x, 1/x} candidate set.
// Clamping at s·1e-3 bounds the basis value by 1000/s, the same order as
// the other bases over the sampled range.
var (
	basisOne  = Basis{"1", bOne}
	basisX    = Basis{"x", bX}
	basisX2   = Basis{"x^2", bX2}
	basisX3   = Basis{"x^3", bX3}
	basisLog  = Basis{"ln x", bLog}
	basisXLog = Basis{"x·ln x", bXLog}
	basisExp  = Basis{"e^x", bExp}
	basisXExp = Basis{"x·e^x", bXExp}
	basisInv  = Basis{"1/x", bInv}
)

// Eval returns the basis value at x for fitting scale s.
func (b Basis) Eval(x, s float64) float64 {
	switch b.id {
	case bOne:
		return 1
	case bX:
		return x
	case bX2:
		return x * x
	case bX3:
		return x * x * x
	case bLog:
		return math.Log(clampPos(x))
	case bXLog:
		return x * math.Log(clampPos(x))
	case bExp:
		return math.Exp(x / s)
	case bXExp:
		return x * math.Exp(x/s)
	default:
		return 1 / clampPosTo(x, s*1e-3)
	}
}

// Slope returns the basis's derivative in x at x for fitting scale s.
func (b Basis) Slope(x, s float64) float64 {
	switch b.id {
	case bOne:
		return 0
	case bX:
		return 1
	case bX2:
		return 2 * x
	case bX3:
		return 3 * x * x
	case bLog:
		if x < minPos {
			return 0
		}
		return 1 / x
	case bXLog:
		if x < minPos {
			return math.Log(minPos)
		}
		return math.Log(x) + 1
	case bExp:
		return math.Exp(x/s) / s
	case bXExp:
		return math.Exp(x/s) * (1 + x/s)
	default:
		if x < invClamp(s) {
			return 0
		}
		return -1 / (x * x)
	}
}

// Clamp returns the point below which Eval is constant, or 0 when Eval
// has no clamp.
func (b Basis) Clamp(s float64) float64 {
	switch b.id {
	case bLog, bXLog:
		return minPos
	case bInv:
		return invClamp(s)
	}
	return 0
}

// evalBases evaluates every basis of basisTable at x into v, sharing one
// logarithm between ln x and x·ln x and one exponential between eˣ and
// x·eˣ. Each value is bit-identical to its Basis.Eval.
func evalBases(v *[nBases]float64, x, s float64) {
	l, e := math.Log(clampPos(x)), math.Exp(x/s)
	*v = [nBases]float64{1, x, x * x, x * x * x, l, x * l, e, x * e, 1 / clampPosTo(x, s*1e-3)}
}

// minPos is the smallest argument the log bases take.
const minPos = 1e-9

// invClamp is the point below which the 1/x basis is constant.
func invClamp(s float64) float64 { return math.Max(s*1e-3, minPos) }

func clampPos(x float64) float64 {
	return clampPosTo(x, minPos)
}

// clampPosTo floors x at floor (itself floored at minPos so a zero scale
// cannot divide by zero).
func clampPosTo(x, floor float64) float64 {
	if floor < minPos {
		floor = minPos
	}
	if x < floor {
		return floor
	}
	return x
}

// Model is a fitted curve y(x) = Σ coef_i · basis_i(x).
type Model struct {
	Bases []Basis
	Coef  linalg.Vector
	Scale float64 // the x-scale used by exponential bases
	R2    float64 // coefficient of determination on the fitting samples
	AdjR2 float64 // adjusted for the number of coefficients
}

// Eval returns the model value at x. The pointer receiver spares each
// evaluation a copy of the model: Eval is too large to be inlined.
func (m *Model) Eval(x float64) float64 {
	var y float64
	for i, b := range m.Bases {
		y += m.Coef[i] * b.Eval(x, m.Scale)
	}
	return y
}

// Slope returns the model's derivative dy/dx at x, from the bases'
// analytic derivatives.
func (m *Model) Slope(x float64) float64 {
	var d float64
	for i, b := range m.Bases {
		d += m.Coef[i] * b.Slope(x, m.Scale)
	}
	return d
}

// String names the model, e.g. "0.3·x + 1.2·ln x (R²=0.98)".
func (m Model) String() string {
	var terms []string
	for i, b := range m.Bases {
		terms = append(terms, fmt.Sprintf("%.4g·%s", m.Coef[i], b.Name))
	}
	return fmt.Sprintf("%s (R²=%.3f)", strings.Join(terms, " + "), m.R2)
}

// MonotoneNonDecreasing reports whether the model is non-decreasing on
// [lo, hi] (0 ≤ lo < hi): whether its derivative d = Σ c_i·b_i′ stays at or
// above −1e-12·(|y(x)|+1)·64/(hi−lo) everywhere there. That is the
// per-step tolerance of a 64-point grid, turned into a slope. The block-size
// solver's global-optimum guarantee needs non-decreasing curves, and a
// wiggly overfit would mislead it.
//
// A few points decide it exactly for the ten candidate sets. Between clamp
// points, d is monotone in x on x > 0 for eight of them, so its values at
// the two ends bound it: {1, x}, {1, x, x²}, {1, ln x}, {1, x, ln x},
// {1, x, x·ln x}, {1, x, eˣ}, {1, x, x·eˣ} and {1, x, 1/x} each add at most
// one non-constant derivative term (c/x, ln x, e^{x/s}, e^{x/s}(1+x/s),
// −c/x²), and each of those is monotone on x > 0. The other two sets each
// add one closed-form stationary point of d: {1, x, x², x³}, whose d is a
// quadratic with its vertex at −c_x²/(3c_x³), and {1, x, x², ln x}, whose
// d = c_x + 2c_x²·x + c_ln/x turns at x = √(c_ln / 2c_x²). A clamp splits
// [lo, hi] into two pieces with d monotone on each, so it adds a check on
// each side of it.
func (m Model) MonotoneNonDecreasing(lo, hi float64) bool {
	var e rangeEnds
	e.set(lo, hi, m.Scale)
	return m.monotone(lo, hi, &e)
}

// rangeEnds holds every basis's value (v) and slope (d) at the two ends of
// a range, indexed like basisTable.
type rangeEnds struct{ v, d [2][nBases]float64 }

// set evaluates every basis and its slope at lo and hi.
func (e *rangeEnds) set(lo, hi, s float64) {
	for k, x := range [2]float64{lo, hi} {
		evalBases(&e.v[k], x, s)
		for i, b := range basisTable {
			e.d[k][i] = b.Slope(x, s)
		}
	}
}

// monotone is MonotoneNonDecreasing, reading the model's value and slope
// at lo and hi from e, which must hold the bases there at m.Scale. The
// sums run in Eval's and Slope's order, so they equal m.Eval and m.Slope.
func (m *Model) monotone(lo, hi float64, e *rangeEnds) bool {
	slack := 1e-12 * 64 / (hi - lo)
	ok := func(x float64) bool {
		return m.Slope(x) >= -slack*(math.Abs(m.Eval(x))+1)
	}
	for k := range e.v {
		var y, d float64
		for i, b := range m.Bases {
			y += m.Coef[i] * e.v[k][b.id]
		}
		for i, b := range m.Bases {
			d += m.Coef[i] * e.d[k][b.id]
		}
		if !(d >= -slack*(math.Abs(y)+1)) {
			return false
		}
	}
	inside := func(x float64) bool { return x > lo && x < hi }
	var c2, c3, cLog float64
	for i, b := range m.Bases {
		switch b.id {
		case bX2:
			c2 = m.Coef[i]
		case bX3:
			c3 = m.Coef[i]
		case bLog:
			cLog = m.Coef[i]
		}
		// A basis without a clamp reports 0, which is never inside.
		if p := b.Clamp(m.Scale); inside(p) && !(ok(p) && ok(math.Nextafter(p, lo))) {
			return false
		}
	}
	// Division by a zero coefficient and the root of a negative ratio give
	// ±Inf or NaN, which inside rejects.
	for _, x := range [...]float64{-c2 / (3 * c3), math.Sqrt(cLog / (2 * c2))} {
		if inside(x) && !ok(x) {
			return false
		}
	}
	return true
}

// The nine bases every candidate set draws from, indexed in Gram order
// (see Fitter): the six that ignore the fitting scale s come first, and the
// three that read it, from firstScaled on, last.
const (
	bOne = iota
	bX
	bX2
	bX3
	bLog
	bXLog
	bExp
	bXExp
	bInv
	nBases
)

// firstScaled is the first basis whose Eval reads the fitting scale.
const firstScaled = bExp

var basisTable = [nBases]Basis{basisOne, basisX, basisX2, basisX3, basisLog, basisXLog, basisExp, basisXExp, basisInv}

// MaxCoef is the most coefficients a fitted Model has.
const MaxCoef = 4

// candidate is one basis combination: idx lists its bases' basisTable
// indices in ascending order, and bases the bases themselves, which every
// Model fitted over the combination shares read-only.
type candidate struct {
	idx   []int
	bases []Basis
}

func setOf(idx ...int) candidate {
	c := candidate{idx: idx}
	for _, i := range idx {
		c.bases = append(c.bases, basisTable[i])
	}
	return c
}

// candidates are the basis combinations the selector tries, from the
// paper's set. The paper allows combinations; these cover the shapes of
// Fig. 1 (linear CPU curves, saturating/superlinear GPU curves) without
// inviting overfit on 4–8 samples.
var candidates = [...]candidate{
	setOf(bOne, bX),
	setOf(bOne, bLog),
	setOf(bOne, bX, bLog),
	setOf(bOne, bX, bXLog),
	setOf(bOne, bX, bX2),
	setOf(bOne, bX, bX2, bX3),
	setOf(bOne, bX, bExp),
	setOf(bOne, bX, bXExp),
	setOf(bOne, bX, bInv),
	setOf(bOne, bX, bX2, bLog),
}

// lineSet is the transfer line G_p and the selector's last resort;
// logSet is HDSS's weight curve.
var lineSet, logSet = &candidates[0], &candidates[1]

// FitSamples fits y(x) to the samples by least squares over each candidate
// basis set and returns the model with the best adjusted R² among those
// non-decreasing over the sampled range and half as far again. xs must
// contain at least two distinct values.
func FitSamples(xs, ys []float64) (Model, error) {
	_, hi := minMaxOrZero(xs)
	return FitSamplesOver(xs, ys, hi*1.5)
}

// FitSamplesOver is FitSamples with an explicit evaluation horizon: the
// chosen model is non-decreasing over [min(xs), useHi]. Schedulers
// extrapolate the fitted curves far beyond the probed block sizes when
// solving the block-size system, and a polynomial that turns over outside
// the sample range would tell the solver a slow device gets *faster* on
// huge blocks — so candidates that decrease anywhere in the usage range
// are rejected.
//
// It delegates to a fresh incremental Fitter so the one-shot and
// incremental paths share one implementation: the candidate sets, the
// normal-equations solve, the parsimony scoring, the monotonicity test and
// the line fallback are all defined in Fitter.Fit. Callers with a growing
// sample stream should hold a Fitter directly and skip the per-call setup.
func FitSamplesOver(xs, ys []float64, useHi float64) (Model, error) {
	var f Fitter
	return f.Fit(new(Workspace), xs, ys, useHi)
}

func minMaxOrZero(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	return minMax(xs)
}

// finiteSamples reports whether every sample in both streams is finite.
func finiteSamples(xs, ys []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	for _, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return false
		}
	}
	return true
}

// sampleScale returns the largest |x| and whether xs has ≥2 distinct values.
// It is a plain scan (no sort, no allocation): max(|min|, |max|) equals the
// largest absolute value, and min ≠ max detects spread — the hot refit path
// calls this on every fitting round.
func sampleScale(xs []float64) (scale float64, spread bool) {
	lo, hi := minMax(xs)
	scale = math.Abs(hi)
	if a := math.Abs(lo); a > scale {
		scale = a
	}
	if scale == 0 {
		scale = 1
	}
	return scale, lo != hi
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Linear is the transfer-time model G_p[x] = A1·x + A2 of Eq. 2.
type Linear struct {
	A1, A2 float64 // bandwidth slope and latency intercept
	R2     float64
}

// Eval returns the model value at x, floored at 0 (a transfer cannot take
// negative time even if the fitted intercept dips below zero).
func (l Linear) Eval(x float64) float64 {
	y := l.A1*x + l.A2
	if y < 0 {
		return 0
	}
	return y
}

// FitLogCurve fits y(x) = a + b·ln x by least squares — the weight model
// HDSS [19] uses for its FLOP/s-per-block-size curves.
func FitLogCurve(xs, ys []float64) (Model, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return Model{}, ErrTooFewPoints
	}
	if !finiteSamples(xs, ys) {
		return Model{}, ErrNonFinite
	}
	scale, spread := sampleScale(xs)
	if !spread {
		return Model{}, ErrDegenerate
	}
	var ws Workspace
	ws.tabulate(logSet, xs, ys, scale)
	m, _, err := ws.lstsq(logSet, linalg.NewVector(2), ys, scale)
	return m, err
}

// FitLinear fits G_p by ordinary least squares. Like FitSamplesOver it
// delegates to a fresh incremental Fitter (Line), so one-shot and
// incremental transfer fits are numerically identical.
func FitLinear(xs, ys []float64) (Linear, error) {
	var f Fitter
	return f.Line(new(Workspace), xs, ys)
}
