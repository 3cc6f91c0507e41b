package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorHelpers(t *testing.T) {
	v := Vector{-2, 7, 1}
	if v.NormInf() != 7 {
		t.Errorf("NormInf = %g", v.NormInf())
	}
	u := Vector{1, 1, 1}
	u.AddScaled(2, Vector{1, 2, 3})
	if u[2] != 7 {
		t.Errorf("AddScaled = %v", u)
	}
	u.Scale(0.5)
	if u[2] != 3.5 {
		t.Errorf("Scale = %v", u)
	}
	if !u.IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	u[0] = math.NaN()
	if u.IsFinite() {
		t.Error("NaN vector reported finite")
	}
}

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// mulVec returns a·x.
func mulVec(a *Matrix, x Vector) Vector {
	out := NewVector(a.Rows)
	for i := range out {
		for j, xj := range x {
			out[i] += a.At(i, j) * xj
		}
	}
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g", m.At(1, 0))
	}
	c := m.Clone()
	c.Set(1, 0, 5)
	c.Add(1, 0, 1)
	if c.At(1, 0) != 6 {
		t.Errorf("Set+Add At(1,0) = %g, want 6", c.At(1, 0))
	}
	if m.At(1, 0) != 3 {
		t.Error("Clone aliases storage")
	}
}

func TestLUSolve(t *testing.T) {
	a := fromRows([][]float64{{4, 3}, {6, 3}})
	x, err := SolveLinear(a, Vector{10, 12})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+3y=10, 6x+3y=12 → x=1, y=2.
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Errorf("solution = %v, want [1 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, Vector{1, 2}); err == nil {
		t.Error("expected ErrSingular for rank-1 matrix")
	}
}

// Property: LU solve reconstructs the right-hand side, for random
// well-conditioned systems (diagonal dominance enforced).
func TestLUSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(abs64(seed)%5)
		a := NewMatrix(n, n)
		rng := newTestRNG(seed)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				v := rng()*2 - 1
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			a.Add(i, i, rowSum+1) // diagonal dominance
		}
		want := NewVector(n)
		for i := range want {
			want[i] = rng()*10 - 5
		}
		b := mulVec(a, want)
		got, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range got {
			if !almostEq(got[i], want[i], 1e-8*(1+math.Abs(want[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// leastSquares solves min ‖A·x − b‖₂ with a fresh LeastSquares workspace.
func leastSquares(a *Matrix, b Vector) (Vector, error) {
	var ls LeastSquares
	x := NewVector(a.Cols)
	if err := ls.SolveInto(x, a, b); err != nil {
		return nil, err
	}
	return x, nil
}

func TestQRLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: y = 2x + 1 sampled at 4 points.
	a := fromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	b := Vector{1, 3, 5, 7}
	x, err := leastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-10) || !almostEq(x[1], 2, 1e-10) {
		t.Errorf("coefficients = %v, want [1 2]", x)
	}
}

func TestQRRankDeficientFallsBackToRidge(t *testing.T) {
	// Two identical columns: classic rank deficiency.
	a := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := Vector{2, 4, 6}
	x, err := leastSquares(a, b)
	if err != nil {
		t.Fatalf("expected ridge fallback, got error %v", err)
	}
	// Ridge splits the weight between the duplicated columns; the fitted
	// values must still match the data.
	for i := 0; i < a.Rows; i++ {
		if fit := a.At(i, 0)*x[0] + a.At(i, 1)*x[1]; !almostEq(fit, b[i], 1e-3) {
			t.Errorf("fitted[%d] = %g, want %g", i, fit, b[i])
		}
	}
}

// Property: the least-squares residual is orthogonal to the column space.
func TestQRResidualOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRNG(seed)
		m, n := 8, 3
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng()*2 - 1
		}
		b := NewVector(m)
		for i := range b {
			b[i] = rng() * 10
		}
		x, err := leastSquares(a, b)
		if err != nil {
			return true // skip pathological draws
		}
		r := mulVec(a, x).Scale(-1).AddScaled(1, b)
		for j := 0; j < n; j++ { // (Aᵀ·r)_j
			var proj float64
			for i := 0; i < m; i++ {
				proj += a.At(i, j) * r[i]
			}
			if math.Abs(proj) >= 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQRWideMatrixRejected(t *testing.T) {
	var f QR
	if err := f.Factor(NewMatrix(2, 3)); err == nil {
		t.Error("expected ErrDimension for wide matrix")
	}
}

func TestCholeskySolve(t *testing.T) {
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	var c Cholesky
	if err := c.Factor(a); err != nil {
		t.Fatal(err)
	}
	x := NewVector(2)
	if err := c.SolveInto(x, Vector{10, 8}); err != nil {
		t.Fatal(err)
	}
	// Check A·x = b.
	b := mulVec(a, x)
	if !almostEq(b[0], 10, 1e-10) || !almostEq(b[1], 8, 1e-10) {
		t.Errorf("A·x = %v, want [10 8]", b)
	}
	// L·Lᵀ must reconstruct A.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			var rec float64
			for k := 0; k < 2; k++ {
				rec += c.l.At(i, k) * c.l.At(j, k)
			}
			if !almostEq(rec, a.At(i, j), 1e-10) {
				t.Errorf("(L·Lᵀ)[%d][%d] = %g, want %g", i, j, rec, a.At(i, j))
			}
		}
	}
}

func TestCholeskyNotPositiveDefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	var c Cholesky
	if err := c.Factor(a); err == nil {
		t.Error("expected ErrSingular for indefinite matrix")
	}
}

// newTestRNG returns a tiny deterministic generator (xorshift) for property
// tests without importing math/rand in the library package's tests.
func newTestRNG(seed int64) func() float64 {
	s := uint64(seed)*2685821657736338717 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%1e9) / 1e9
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
