// Package linalg provides the dense linear-algebra primitives used by the
// curve-fitting layer of the PLB-HeC reproduction (least squares via QR and
// Cholesky) and by the interior-point test oracle (KKT systems via LU). It
// is deliberately small: dense column-major-free matrices, decompositions
// with partial pivoting, and the triangular solves they need. Everything is
// float64 and stdlib-only.
package linalg

import (
	"errors"
	"fmt"
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

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dot returns the inner product of v and w.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(ErrDimension)
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm, computed with scaling to avoid
// overflow/underflow.
func (v Vector) Norm2() float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

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

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
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

// Min returns the smallest element of v. It panics on an empty vector.
func (v Vector) Min() float64 {
	if len(v) == 0 {
		panic("linalg: Min of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of v. It panics on an empty vector.
func (v Vector) Max() float64 {
	if len(v) == 0 {
		panic("linalg: Max of empty vector")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
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

// String renders the vector for debugging.
func (v Vector) String() string { return fmt.Sprintf("%v", []float64(v)) }
