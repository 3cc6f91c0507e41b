// Package fit implements the performance-model curve fitting of the paper's
// §III.B: least-squares fits of the per-unit execution-time function F_p[x]
// over the basis set {ln x, x, x², x³, eˣ, x·eˣ, x·ln x} (Eq. 1), selected
// by coefficient of determination, and the linear transfer-time function
// G_p[x] = a₁·x + a₂ (Eq. 2).
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
// x. Clamp, when set, returns the point below which Eval holds its argument
// at a floor: Eval is constant there, so Slope jumps at the clamp.
// ScaleFree marks bases whose Eval ignores s entirely: the incremental
// Fitter can keep normal-equation accumulations for all-scale-free
// candidate sets across refits even as the fitting scale moves, while
// scale-dependent sets must rebuild.
type Basis struct {
	Name      string
	Eval      func(x, s float64) float64
	Slope     func(x, s float64) float64
	Clamp     func(s float64) float64
	ScaleFree bool
}

// The paper's basis set. Log bases clamp x to a tiny positive value so that
// evaluation at x=0 stays finite (a zero-size block takes ~0 time anyway).
var (
	basisOne = Basis{
		Name:      "1",
		Eval:      func(x, s float64) float64 { return 1 },
		Slope:     func(x, s float64) float64 { return 0 },
		ScaleFree: true,
	}
	basisLog = Basis{
		Name: "ln x",
		Eval: func(x, s float64) float64 { return math.Log(clampPos(x)) },
		Slope: func(x, s float64) float64 {
			if x < minPos {
				return 0
			}
			return 1 / x
		},
		Clamp:     func(s float64) float64 { return minPos },
		ScaleFree: true,
	}
	basisX = Basis{
		Name:      "x",
		Eval:      func(x, s float64) float64 { return x },
		Slope:     func(x, s float64) float64 { return 1 },
		ScaleFree: true,
	}
	basisX2 = Basis{
		Name:      "x^2",
		Eval:      func(x, s float64) float64 { return x * x },
		Slope:     func(x, s float64) float64 { return 2 * x },
		ScaleFree: true,
	}
	basisX3 = Basis{
		Name:      "x^3",
		Eval:      func(x, s float64) float64 { return x * x * x },
		Slope:     func(x, s float64) float64 { return 3 * x * x },
		ScaleFree: true,
	}
	basisExp = Basis{
		Name:  "e^x",
		Eval:  func(x, s float64) float64 { return math.Exp(x / s) },
		Slope: func(x, s float64) float64 { return math.Exp(x/s) / s },
	}
	basisXExp = Basis{
		Name:  "x·e^x",
		Eval:  func(x, s float64) float64 { return x * math.Exp(x/s) },
		Slope: func(x, s float64) float64 { return math.Exp(x/s) * (1 + x/s) },
	}
	basisXLog = Basis{
		Name: "x·ln x",
		Eval: func(x, s float64) float64 { return x * math.Log(clampPos(x)) },
		Slope: func(x, s float64) float64 {
			if x < minPos {
				return math.Log(minPos)
			}
			return math.Log(x) + 1
		},
		Clamp:     func(s float64) float64 { return minPos },
		ScaleFree: true,
	}
	// The 1/x floor is relative to the fitting scale s: an absolute 1e-9
	// floor put a 1e9 entry in the design matrix at x=0, wrecking the
	// normal-equations conditioning for the {1, x, 1/x} candidate set.
	// Clamping at s·1e-3 bounds the basis value by 1000/s, the same order
	// as the other bases over the sampled range.
	basisInv = Basis{
		Name: "1/x",
		Eval: func(x, s float64) float64 { return 1 / clampPosTo(x, s*1e-3) },
		Slope: func(x, s float64) float64 {
			if x < invClamp(s) {
				return 0
			}
			return -1 / (x * x)
		},
		Clamp: invClamp,
	}
)

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

// Eval returns the model value at x.
func (m Model) Eval(x float64) float64 {
	var y float64
	for i, b := range m.Bases {
		y += m.Coef[i] * b.Eval(x, m.Scale)
	}
	return y
}

// Slope returns the model's derivative dy/dx at x, from the bases'
// analytic derivatives.
func (m Model) Slope(x float64) float64 {
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
	slack := 1e-12 * 64 / (hi - lo)
	ok := func(x float64) bool {
		return m.Slope(x) >= -slack*(math.Abs(m.Eval(x))+1)
	}
	if !ok(lo) || !ok(hi) {
		return false
	}
	inside := func(x float64) bool { return x > lo && x < hi }
	var c2, c3, cLog float64
	for i, b := range m.Bases {
		switch b.Name {
		case basisX2.Name:
			c2 = m.Coef[i]
		case basisX3.Name:
			c3 = m.Coef[i]
		case basisLog.Name:
			cLog = m.Coef[i]
		}
		if b.Clamp != nil {
			if p := b.Clamp(m.Scale); inside(p) && !(ok(p) && ok(math.Nextafter(p, lo))) {
				return false
			}
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

// candidateSets are the basis combinations the selector tries, from the
// paper's set. The paper allows combinations; these cover the shapes of
// Fig. 1 (linear CPU curves, saturating/superlinear GPU curves) without
// inviting overfit on 4–8 samples. Every Fitter and every Model it returns
// shares these slices read-only, so one Fitter per unit copies nothing.
var candidateSets = [][]Basis{
	{basisOne, basisX},
	{basisOne, basisLog},
	{basisOne, basisX, basisLog},
	{basisOne, basisX, basisXLog},
	{basisOne, basisX, basisX2},
	{basisOne, basisX, basisX2, basisX3},
	{basisOne, basisX, basisExp},
	{basisOne, basisX, basisXExp},
	{basisOne, basisX, basisInv},
	{basisOne, basisX, basisX2, basisLog},
}

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
	return NewFitter().Fit(xs, ys, useHi)
}

func minMaxOrZero(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	return minMax(xs)
}

// fitBasis solves the least-squares problem for one basis set.
func fitBasis(bases []Basis, xs, ys []float64, scale float64) (Model, error) {
	n, p := len(xs), len(bases)
	a := linalg.NewMatrix(n, p)
	for i, x := range xs {
		for j, b := range bases {
			a.Set(i, j, b.Eval(x, scale))
		}
	}
	coef, err := linalg.LeastSquares(a, linalg.Vector(ys))
	if err != nil {
		return Model{}, err
	}
	if !coef.IsFinite() {
		return Model{}, ErrDegenerate
	}
	m := Model{Bases: bases, Coef: coef, Scale: scale}
	m.R2, m.AdjR2 = rsquared(m, xs, ys, p)
	return m, nil
}

// rsquared computes R² and adjusted R² of model m on the samples.
func rsquared(m Model, xs, ys []float64, p int) (r2, adj float64) {
	var mean float64
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	var ssRes, ssTot float64
	for i, x := range xs {
		d := ys[i] - m.Eval(x)
		ssRes += d * d
		t := ys[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		// All y equal: a perfect fit has no residual; call it 1.
		if ssRes < 1e-18 {
			return 1, 1
		}
		return 0, 0
	}
	r2 = 1 - ssRes/ssTot
	n := float64(len(xs))
	den := n - float64(p) - 1
	if den <= 0 {
		return r2, r2
	}
	adj = 1 - (1-r2)*(n-1)/den
	return r2, adj
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
	return fitBasis([]Basis{basisOne, basisLog}, xs, ys, scale)
}

// FitLinear fits G_p by ordinary least squares. Like FitSamplesOver it
// delegates to a fresh incremental Fitter (Line), so one-shot and
// incremental transfer fits are numerically identical.
func FitLinear(xs, ys []float64) (Linear, error) {
	return NewFitter().Line(xs, ys)
}
