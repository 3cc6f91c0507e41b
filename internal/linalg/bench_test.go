package linalg

import "testing"

func benchMatrix(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, float64((i*31+j*17)%19)+1)
		}
		m.Add(i, i, float64(n))
	}
	return m
}

func BenchmarkLUFactorSolve16(b *testing.B) {
	a := benchMatrix(16)
	rhs := NewVector(16)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLinear(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUFactorSolve64(b *testing.B) {
	a := benchMatrix(64)
	rhs := NewVector(64)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLinear(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQRLeastSquares(b *testing.B) {
	// Typical curve-fit shape: 12 samples × 4 basis functions.
	a := NewMatrix(12, 4)
	rhs := NewVector(12)
	for i := 0; i < 12; i++ {
		x := float64(i + 1)
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		a.Set(i, 2, x*x)
		a.Set(i, 3, x*x*x)
		rhs[i] = 3*x + 2
	}
	var ls LeastSquares
	x := NewVector(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ls.SolveInto(x, a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
