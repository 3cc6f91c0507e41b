package linalg

import "testing"

// reusable-workspace tests: re-Factoring into an existing object must give
// the exact same factors and solutions as a fresh one, and warm
// Factor+SolveInto must not allocate.

func spdMatrix(n int) *Matrix {
	a := benchMatrix(n)
	// Make it symmetric positive definite: A·Aᵀ + n·I.
	s := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				s.Add(i, j, a.At(i, k)*a.At(j, k))
			}
		}
		s.Add(i, i, float64(n))
	}
	return s
}

func TestMatrixReset(t *testing.T) {
	m := NewMatrix(3, 3)
	m.Set(1, 1, 7)
	m.Reset(2, 4)
	if m.Rows != 2 || m.Cols != 4 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Reset left a nonzero entry")
		}
	}
	// Growing past capacity must still work.
	m.Reset(5, 5)
	if len(m.Data) != 25 {
		t.Fatalf("len %d", len(m.Data))
	}
}

func TestCholeskyRefactorMatchesOneShot(t *testing.T) {
	a, b := spdMatrix(4), spdMatrix(6)
	rhsB := NewVector(6)
	for i := range rhsB {
		rhsB[i] = float64(i + 1)
	}
	var c Cholesky
	if err := c.Factor(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Factor(b); err != nil { // re-factor at a different size
		t.Fatal(err)
	}
	var one Cholesky
	if err := one.Factor(b); err != nil {
		t.Fatal(err)
	}
	for i := range one.l.Data {
		if one.l.Data[i] != c.l.Data[i] {
			t.Fatalf("refactored L differs at %d: %v vs %v", i, c.l.Data[i], one.l.Data[i])
		}
	}
	x, want := NewVector(6), NewVector(6)
	if err := c.SolveInto(x, rhsB); err != nil {
		t.Fatal(err)
	}
	if err := one.SolveInto(want, rhsB); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("SolveInto[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLURefactorMatchesOneShot(t *testing.T) {
	a, b := benchMatrix(4), benchMatrix(7)
	rhs := NewVector(7)
	for i := range rhs {
		rhs[i] = float64(2*i - 3)
	}
	var f LU
	if err := f.Factor(a); err != nil {
		t.Fatal(err)
	}
	if err := f.Factor(b); err != nil {
		t.Fatal(err)
	}
	one, err := FactorLU(b)
	if err != nil {
		t.Fatal(err)
	}
	x := NewVector(7)
	if err := f.SolveInto(x, rhs); err != nil {
		t.Fatal(err)
	}
	want, err := one.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("SolveInto[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestQRRefactorMatchesOneShot(t *testing.T) {
	a := NewMatrix(8, 3)
	rhs := NewVector(8)
	for i := 0; i < 8; i++ {
		x := float64(i + 1)
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		a.Set(i, 2, x*x)
		rhs[i] = 5 - 2*x + 0.5*x*x
	}
	var f QR
	if err := f.Factor(benchMatrix(5)); err != nil { // warm up at another size
		t.Fatal(err)
	}
	if err := f.Factor(a); err != nil {
		t.Fatal(err)
	}
	var one QR
	if err := one.Factor(a); err != nil {
		t.Fatal(err)
	}
	x, want := NewVector(3), NewVector(3)
	if err := f.SolveInto(x, rhs); err != nil {
		t.Fatal(err)
	}
	if err := one.SolveInto(want, rhs); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("SolveInto[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

// TestWarmFactorSolveZeroAlloc enforces the workspace contract: after the
// first Factor at a given size, Factor+SolveInto cycles allocate nothing.
func TestWarmFactorSolveZeroAlloc(t *testing.T) {
	spd := spdMatrix(6)
	gen := benchMatrix(6)
	tall := NewMatrix(8, 3)
	for i := 0; i < 8; i++ {
		x := float64(i + 1)
		tall.Set(i, 0, 1)
		tall.Set(i, 1, x)
		tall.Set(i, 2, x*x)
	}
	rhs6, rhs8 := NewVector(6), NewVector(8)
	for i := range rhs6 {
		rhs6[i] = float64(i + 1)
	}
	for i := range rhs8 {
		rhs8[i] = float64(i + 1)
	}
	// Two equal columns: the least-squares solve takes its ridge retry.
	deficient := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	rhs3 := Vector{2, 4, 6}
	var c Cholesky
	var l LU
	var q QR
	var ls LeastSquares
	x6, x3, x2 := NewVector(6), NewVector(3), NewVector(2)
	warm := func() {
		if err := c.Factor(spd); err != nil {
			t.Fatal(err)
		}
		if err := c.SolveInto(x6, rhs6); err != nil {
			t.Fatal(err)
		}
		if err := l.Factor(gen); err != nil {
			t.Fatal(err)
		}
		if err := l.SolveInto(x6, rhs6); err != nil {
			t.Fatal(err)
		}
		if err := q.Factor(tall); err != nil {
			t.Fatal(err)
		}
		if err := q.SolveInto(x3, rhs8); err != nil {
			t.Fatal(err)
		}
		if err := ls.SolveInto(x3, tall, rhs8); err != nil {
			t.Fatal(err)
		}
		if err := ls.SolveInto(x2, deficient, rhs3); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("warm factor+solve allocates %v times, want 0", allocs)
	}
}
