package linalg

import "math"

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ. The zero value is ready to use with Factor; a
// Cholesky can be re-factored any number of times and reuses its storage, so
// warm refits allocate nothing.
type Cholesky struct {
	l *Matrix
}

// Factor (re)computes the factorization of a into c, reusing c's storage
// when the size allows. Only the lower triangle of a is read. On error the
// factor is invalid and must not be used with SolveInto.
func (c *Cholesky) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		return ErrDimension
	}
	n := a.Rows
	if c.l == nil {
		c.l = NewMatrix(n, n)
	} else {
		c.l.Reset(n, n)
	}
	l := c.l
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 {
			return ErrSingular
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return nil
}

// SolveInto solves A·x = b into the caller-provided x (len n). x may alias
// b; the solve happens in place on x. It never allocates.
func (c *Cholesky) SolveInto(x, b Vector) error {
	n := c.l.Rows
	if len(b) != n || len(x) != n {
		return ErrDimension
	}
	if n == 0 {
		return nil
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= c.l.At(i, j) * x[j]
		}
		x[i] /= c.l.At(i, i)
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= c.l.At(j, i) * x[j]
		}
		x[i] /= c.l.At(i, i)
	}
	return nil
}
