package linalg

import "math"

// QR holds a Householder QR factorization of an m×n matrix with m ≥ n:
// A = Q·R. The factors are stored packed: the upper triangle of qr holds R,
// the lower part holds the Householder vectors, and tau the scalar factors.
// The zero value is ready to use with Factor; re-factoring reuses all
// storage, so warm least-squares solves allocate nothing.
type QR struct {
	qr    *Matrix
	tau   Vector
	rdiag Vector // diagonal of R, one entry per column
	work  Vector // scratch for SolveInto (len m)
}

// Factor (re)computes the factorization of a into f, reusing f's storage
// when capacity allows. a is not modified.
func (f *QR) Factor(a *Matrix) error {
	m, n := a.Rows, a.Cols
	if m < n {
		return ErrDimension
	}
	if f.qr == nil {
		f.qr = a.Clone()
	} else {
		f.qr.Reset(m, n)
		copy(f.qr.Data, a.Data)
	}
	f.tau = resizeZero(f.tau, n)
	f.rdiag = resizeZero(f.rdiag, n)
	qr := f.qr
	for k := 0; k < n; k++ {
		// Norm of column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, qr.At(i, k))
		}
		if norm == 0 {
			f.tau[k] = 0
			f.rdiag[k] = 0
			continue
		}
		if qr.At(k, k) > 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/norm)
		}
		qr.Add(k, k, 1)
		f.tau[k] = qr.At(k, k)
		// Apply the reflector to the trailing columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Add(i, j, s*qr.At(i, k))
			}
		}
		f.rdiag[k] = -norm
	}
	return nil
}

// resizeZero returns v resized to n with every entry zeroed, reusing the
// backing array when capacity allows.
func resizeZero(v Vector, n int) Vector {
	if cap(v) < n {
		return NewVector(n)
	}
	v = v[:n]
	for i := range v {
		v[i] = 0
	}
	return v
}

// SolveInto computes the least-squares solution into the caller-provided x
// (len n). b is not modified. After the first call at a given size it never
// allocates (an internal scratch vector is reused across calls).
func (f *QR) SolveInto(x, b Vector) error {
	m, n := f.qr.Rows, f.qr.Cols
	if len(b) != m || len(x) != n {
		return ErrDimension
	}
	if cap(f.work) < m {
		f.work = NewVector(m)
	}
	y := f.work[:m]
	copy(y, b)
	// Apply Qᵀ to y.
	for k := 0; k < n; k++ {
		if f.tau[k] == 0 {
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R·x = y[0:n].
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		d := f.rdiag[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// LeastSquares solves min ‖A·x − b‖₂ via QR. If A is rank-deficient it
// retries with a small ridge penalty (Tikhonov regularization), which the
// curve-fitting layer relies on for nearly collinear basis functions. The
// zero value is ready to use; every solve reuses the factorization and the
// ridge system's storage, so once they have grown to a problem's size a
// solve allocates nothing.
type LeastSquares struct {
	qr  QR
	aug Matrix // the ridge system [A; √λ·I]
	rhs Vector // its right-hand side [b; 0]
}

// ridgeLambda is the Tikhonov penalty λ of the rank-deficient retry.
const ridgeLambda = 1e-8

// SolveInto computes the least-squares solution into the caller-provided x
// (len a.Cols). a and b are not modified. When A is rank-deficient, x is
// the solution of min ‖A·x − b‖² + λ‖x‖², via the augmented system
// [A; √λ·I]·x = [b; 0], which stays full rank for λ > 0.
func (ls *LeastSquares) SolveInto(x Vector, a *Matrix, b Vector) error {
	if err := ls.qr.Factor(a); err != nil {
		return err
	}
	if err := ls.qr.SolveInto(x, b); err == nil && x.IsFinite() {
		return nil
	}
	m, n := a.Rows, a.Cols
	aug := ls.aug.Reset(m+n, n)
	copy(aug.Data[:m*n], a.Data)
	s := math.Sqrt(ridgeLambda)
	for i := 0; i < n; i++ {
		aug.Set(m+i, i, s)
	}
	ls.rhs = resizeZero(ls.rhs, m+n)
	copy(ls.rhs, b)
	if err := ls.qr.Factor(aug); err != nil {
		return err
	}
	return ls.qr.SolveInto(x, ls.rhs)
}
