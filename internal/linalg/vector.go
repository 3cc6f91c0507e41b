// Package linalg provides the dense linear-algebra primitives used by the
// curve-fitting layer of the PLB-HeC reproduction (least squares via QR and
// Cholesky) and by the interior-point test oracle (KKT systems via LU). It
// is deliberately small: dense column-major-free matrices, decompositions
// with partial pivoting, and the triangular solves they need. Everything is
// float64 and stdlib-only.
package linalg

import (
	"errors"
	"math"
)

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("linalg: dimension mismatch")

// ErrSingular is returned when a factorization meets an (numerically)
// exactly singular pivot.
var ErrSingular = errors.New("linalg: singular matrix")

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// NormInf returns the max-absolute-value norm.
func (v Vector) NormInf() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AddScaled sets v = v + alpha*w in place and returns v.
func (v Vector) AddScaled(alpha float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(ErrDimension)
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
	return v
}

// Scale multiplies every element by alpha in place and returns v.
func (v Vector) Scale(alpha float64) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// IsFinite reports whether every element is finite (no NaN or Inf).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
