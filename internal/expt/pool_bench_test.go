package expt

import (
	"context"
	"runtime"
	"testing"
)

// benchCells is a small but non-trivial sweep: 2 sizes × 2 schedulers,
// 4 seeds each — 16 simulated runs per iteration.
func benchCells() []Cell {
	var cells []Cell
	for _, size := range []int64{2048, 4096} {
		sc := Scenario{Kind: MM, Size: size, Machines: 2, Seeds: 4, BaseSeed: 7}
		for _, name := range []SchedName{PLBHeC, Greedy} {
			cells = append(cells, Cell{Sc: sc, Name: name})
		}
	}
	return cells
}

func benchmarkSweep(b *testing.B, jobs int) {
	cells := benchCells()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(context.Background(), jobs).RunCells(cells); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSequential vs BenchmarkSweepParallel measures the worker
// pool's wall-clock gain on the same grid; on a single-core machine the two
// collapse to the same number (the pool degrades to inline execution).
func BenchmarkSweepSequential(b *testing.B) { benchmarkSweep(b, 1) }

func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, runtime.GOMAXPROCS(0)) }
