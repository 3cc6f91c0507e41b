package linalg

import "math"

// LU holds an LU factorization with partial pivoting: P·A = L·U, where L is
// unit lower triangular and U upper triangular, stored packed in lu. The
// zero value is ready to use with Factor; re-factoring reuses the packed
// storage and pivot array, so warm solves allocate nothing.
type LU struct {
	lu  *Matrix
	piv []int
}

// FactorLU computes the LU factorization of the square matrix a with partial
// (row) pivoting. It returns ErrSingular if a zero pivot is met; the
// factorization object is still returned for inspection.
func FactorLU(a *Matrix) (*LU, error) {
	f := &LU{}
	err := f.Factor(a)
	return f, err
}

// Factor (re)computes the factorization of a into f, reusing f's storage
// when capacity allows. a is not modified.
func (f *LU) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		return ErrDimension
	}
	n := a.Rows
	if f.lu == nil {
		f.lu = a.Clone()
	} else {
		f.lu.Reset(n, n)
		copy(f.lu.Data, a.Data)
	}
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	} else {
		f.piv = f.piv[:n]
	}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		// Find pivot row.
		p, pmax := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > pmax {
				p, pmax = i, a
			}
		}
		if pmax == 0 {
			return ErrSingular
		}
		if p != k {
			rk := lu.Data[k*n : (k+1)*n]
			rp := lu.Data[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Data[i*n : (i+1)*n]
			rk := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// Solve solves A·x = b using the factorization. b is not modified.
func (f *LU) Solve(b Vector) (Vector, error) {
	x := NewVector(f.lu.Rows)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into the caller-provided x (len n). x must not
// alias b: the permuted load reads all of b while writing x. It never
// allocates.
func (f *LU) SolveInto(x, b Vector) error {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		return ErrDimension
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if row[i] == 0 {
			return ErrSingular
		}
		x[i] = s / row[i]
	}
	return nil
}

// SolveLinear factors a and solves a·x = b in one call. a and b are
// unmodified.
func SolveLinear(a *Matrix, b Vector) (Vector, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
