package linalg

import "math"

// LU4 is an LU factorization with partial pivoting specialized to 4×4
// systems, the per-PU diagonal block size of the PLB-HeC KKT arrow
// structure. It is a value type with fixed-size storage, so a slice of LU4
// is one contiguous allocation and Factor/SolveInto never touch the heap —
// the interior-point test oracle of package ipm factors n of these per
// Newton iteration.
type LU4 struct {
	a   [16]float64 // packed L (unit lower) and U, row-major
	piv [4]int8     // row swapped with row k at elimination step k
}

// Factor computes the pivoted factorization of the row-major 4×4 matrix m
// into f, overwriting any previous factorization. It returns ErrSingular on
// an exactly zero pivot (non-finite entries propagate into the solution and
// are caught by the caller's finiteness check instead).
func (f *LU4) Factor(m *[16]float64) error {
	f.a = *m
	a := &f.a
	for k := 0; k < 4; k++ {
		p, pmax := k, math.Abs(a[k*4+k])
		for i := k + 1; i < 4; i++ {
			if v := math.Abs(a[i*4+k]); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax == 0 {
			return ErrSingular
		}
		f.piv[k] = int8(p)
		if p != k {
			for j := 0; j < 4; j++ {
				a[k*4+j], a[p*4+j] = a[p*4+j], a[k*4+j]
			}
		}
		// True division, not reciprocal multiplication: the general LU
		// divides too, and exact cancellation (duplicate rows eliminating
		// to a zero pivot) must classify identically on both paths.
		pivot := a[k*4+k]
		for i := k + 1; i < 4; i++ {
			m := a[i*4+k] / pivot
			a[i*4+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < 4; j++ {
				a[i*4+j] -= m * a[k*4+j]
			}
		}
	}
	return nil
}

// SolveInto solves A·x = b using the factorization. b is taken by value, so
// x may point at the caller's copy of b without aliasing issues.
func (f *LU4) SolveInto(x *[4]float64, b [4]float64) {
	a := &f.a
	for k := 0; k < 4; k++ {
		if p := int(f.piv[k]); p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	// Forward substitution with the unit lower triangle.
	for i := 1; i < 4; i++ {
		for j := 0; j < i; j++ {
			b[i] -= a[i*4+j] * b[j]
		}
	}
	// Back substitution with the upper triangle.
	for i := 3; i >= 0; i-- {
		for j := i + 1; j < 4; j++ {
			b[i] -= a[i*4+j] * b[j]
		}
		b[i] /= a[i*4+i]
	}
	*x = b
}
