package fit

import (
	"math"
	"testing"
)

func BenchmarkFitSamplesOver(b *testing.B) {
	// The scheduler's hot path: 8 geometric samples, horizon 65536.
	var xs, ys []float64
	for x := 8.0; x <= 1024; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, 0.002*x+0.3*math.Log(x))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitSamplesOver(xs, ys, 65536); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitLinear(b *testing.B) {
	xs := []float64{8, 16, 32, 64, 128, 256}
	ys := []float64{0.9, 1.7, 3.2, 6.5, 13.1, 26.0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitLinear(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmRefit measures the incremental path the scheduler actually
// exercises: a per-PU Fitter refitting an unchanged (already accumulated)
// stream. Steady state is zero allocations per round.
func BenchmarkWarmRefit(b *testing.B) {
	var xs, ys []float64
	for x := 8.0; x <= 1024; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, 0.002*x+0.3*math.Log(x))
	}
	var f Fitter
	var ws Workspace
	if _, err := f.Fit(&ws, xs, ys, 65536); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Fit(&ws, xs, ys, 65536); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalGrow measures refit cost as the stream grows one
// sample per round, the exact profiling-round pattern: each round folds one
// rank-1 update per candidate set and re-solves the small Gram systems.
func BenchmarkIncrementalGrow(b *testing.B) {
	const rounds = 16
	xs := make([]float64, rounds)
	ys := make([]float64, rounds)
	for i := range xs {
		x := float64(i+1) * 64
		xs[i] = x
		ys[i] = 0.002*x + 0.3*math.Log(x)
	}
	var ws Workspace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var f Fitter
		for n := 3; n <= rounds; n++ {
			if _, err := f.Fit(&ws, xs[:n], ys[:n], 65536); err != nil {
				b.Fatal(err)
			}
		}
	}
}
