package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
}

func TestVectorDotDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched lengths")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestVectorNorm2(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Norm2(); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm2 = %g, want 5", got)
	}
	// Scaling robustness: huge components must not overflow.
	h := Vector{1e200, 1e200}
	if got := h.Norm2(); math.IsInf(got, 0) {
		t.Error("Norm2 overflowed on large components")
	}
	if got := (Vector{}).Norm2(); got != 0 {
		t.Errorf("empty Norm2 = %g, want 0", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	v := Vector{-2, 7, 1}
	if v.NormInf() != 7 {
		t.Errorf("NormInf = %g", v.NormInf())
	}
	if v.Sum() != 6 {
		t.Errorf("Sum = %g", v.Sum())
	}
	if v.Min() != -2 || v.Max() != 7 {
		t.Errorf("Min/Max = %g/%g", v.Min(), v.Max())
	}
	w := v.Clone()
	w[0] = 100
	if v[0] == 100 {
		t.Error("Clone aliases storage")
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

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g", m.At(1, 0))
	}
	mt := m.T()
	if mt.At(0, 1) != 3 {
		t.Errorf("T At(0,1) = %g", mt.At(0, 1))
	}
	v := m.MulVec(Vector{1, 1})
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v", v)
	}
	p := m.Mul(Identity(2))
	for i := range p.Data {
		if p.Data[i] != m.Data[i] {
			t.Errorf("Mul identity changed data: %v", p.Data)
		}
	}
	if m.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %g", m.MaxAbs())
	}
}

func TestMatrixMulShapes(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 4)
	if got := a.Mul(b); got.Rows != 2 || got.Cols != 4 {
		t.Errorf("Mul shape = %dx%d", got.Rows, got.Cols)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected dimension panic")
		}
	}()
	b.Mul(a.Mul(b))
}

func TestLUSolve(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
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
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveLinear(a, Vector{1, 2}); err == nil {
		t.Error("expected ErrSingular for rank-1 matrix")
	}
}

func TestLUDet(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {0, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), 6, 1e-12) {
		t.Errorf("Det = %g, want 6", f.Det())
	}
	// Pivoted case flips sign bookkeeping; determinant must be invariant.
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	f2, err := FactorLU(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f2.Det(), -1, 1e-12) {
		t.Errorf("Det = %g, want -1", f2.Det())
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
		b := a.MulVec(want)
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
	a := FromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
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
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	b := Vector{2, 4, 6}
	x, err := leastSquares(a, b)
	if err != nil {
		t.Fatalf("expected ridge fallback, got error %v", err)
	}
	// Ridge splits the weight between the duplicated columns; the fitted
	// values must still match the data.
	for i := 0; i < a.Rows; i++ {
		fit := a.Row(i).Dot(x)
		if !almostEq(fit, b[i], 1e-3) {
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
		r := b.Clone().AddScaled(-1, a.MulVec(x))
		at := a.T()
		proj := at.MulVec(r)
		return proj.NormInf() < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQRWideMatrixRejected(t *testing.T) {
	if _, err := FactorQR(NewMatrix(2, 3)); err == nil {
		t.Error("expected ErrDimension for wide matrix")
	}
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix from AᵀA.
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve(Vector{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Check A·x = b.
	b := a.MulVec(x)
	if !almostEq(b[0], 10, 1e-10) || !almostEq(b[1], 8, 1e-10) {
		t.Errorf("A·x = %v, want [10 8]", b)
	}
	// L·Lᵀ must reconstruct A.
	l := c.L()
	rec := l.Mul(l.T())
	for i := range a.Data {
		if !almostEq(rec.Data[i], a.Data[i], 1e-10) {
			t.Errorf("L·Lᵀ = %v, want %v", rec.Data, a.Data)
		}
	}
}

func TestCholeskyNotPositiveDefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); err == nil {
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
