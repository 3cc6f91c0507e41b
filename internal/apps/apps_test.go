package apps

import (
	"math"
	"strings"
	"testing"
)

func TestAppConstructors(t *testing.T) {
	mm := NewMatMul(MatMulConfig{N: 1024})
	if mm.TotalUnits() != 1024 {
		t.Errorf("MM units = %d", mm.TotalUnits())
	}
	if err := mm.Profile().Validate(); err != nil {
		t.Errorf("MM profile invalid: %v", err)
	}
	if !strings.Contains(mm.String(), "MM-1024") {
		t.Errorf("String = %q", mm.String())
	}

	grn := NewGRN(GRNConfig{Genes: 5000})
	if grn.TotalUnits() != 5000 {
		t.Errorf("GRN units = %d", grn.TotalUnits())
	}
	if err := grn.Profile().Validate(); err != nil {
		t.Errorf("GRN profile invalid: %v", err)
	}

	bs := NewBlackScholes(BlackScholesConfig{Options: 9999})
	if bs.TotalUnits() != 9999 {
		t.Errorf("BS units = %d", bs.TotalUnits())
	}
	if err := bs.Profile().Validate(); err != nil {
		t.Errorf("BS profile invalid: %v", err)
	}
}

func TestAppComplexityScaling(t *testing.T) {
	// MM per-unit work is Θ(N²) — the O(n³) total of §IV.A.
	a := NewMatMul(MatMulConfig{N: 1000}).Profile().FlopsPerUnit
	b := NewMatMul(MatMulConfig{N: 2000}).Profile().FlopsPerUnit
	if math.Abs(b/a-4) > 1e-9 {
		t.Errorf("MM per-unit flops scaled %gx for 2x N, want 4x", b/a)
	}
	// GRN per-unit work is Θ(genes²·samples).
	g1 := NewGRN(GRNConfig{Genes: 1000, Samples: 32}).Profile().FlopsPerUnit
	g2 := NewGRN(GRNConfig{Genes: 2000, Samples: 32}).Profile().FlopsPerUnit
	if math.Abs(g2/g1-4) > 1e-9 {
		t.Errorf("GRN per-unit flops scaled %gx for 2x genes, want 4x", g2/g1)
	}
	// BS per-unit work is Θ(paths·steps), independent of option count.
	b1 := NewBlackScholes(BlackScholesConfig{Options: 100, Paths: 1000, Steps: 10}).Profile().FlopsPerUnit
	b2 := NewBlackScholes(BlackScholesConfig{Options: 999999, Paths: 1000, Steps: 10}).Profile().FlopsPerUnit
	if b1 != b2 {
		t.Error("BS per-unit flops depends on option count")
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	cases := []func(){
		func() { NewMatMul(MatMulConfig{N: 0}) },
		func() { NewGRN(GRNConfig{Genes: -1}) },
		func() { NewBlackScholes(BlackScholesConfig{Options: 0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLiveMatMulCorrectness(t *testing.T) {
	m := NewLiveMatMul(48, 3)
	// Execute in shuffled chunks as a scheduler would.
	for _, r := range [][2]int64{{24, 48}, {0, 12}, {12, 24}} {
		m.Execute(r[0], r[1])
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveMatMulVerifyCatchesCorruption(t *testing.T) {
	m := NewLiveMatMul(32, 3)
	m.Execute(0, 32)
	m.C[5*32+7] += 1 // corrupt one element
	if err := m.Verify(); err == nil {
		t.Skip("corrupted element not among the spot checks (acceptable)")
	}
}

func TestLiveBlackScholesConvergesToAnalytic(t *testing.T) {
	bs := NewLiveBlackScholes(20, 3000, 16, 5)
	bs.Execute(0, 20)
	if err := bs.Verify(); err != nil {
		t.Fatal(err)
	}
	// And the prices should be in a sane range.
	for i, p := range bs.Price {
		if p < 0 || p > 200 {
			t.Errorf("option %d priced %g", i, p)
		}
	}
}

func TestAnalyticBlackScholesKnownValue(t *testing.T) {
	// Classic textbook case: S=100, K=100, r=5%, σ=20%, T=1 → C ≈ 10.4506.
	got := Analytic(Option{Spot: 100, Strike: 100, Rate: 0.05, Volatility: 0.2, Maturity: 1})
	if math.Abs(got-10.4506) > 1e-3 {
		t.Errorf("analytic price = %g, want 10.4506", got)
	}
}

func TestLiveBlackScholesDeterministicPerOption(t *testing.T) {
	a := NewLiveBlackScholes(10, 200, 8, 9)
	b := NewLiveBlackScholes(10, 200, 8, 9)
	a.Execute(0, 10)
	// Execute b in a different order; per-option RNG must make results
	// identical regardless of which worker/when executes an option.
	b.Execute(5, 10)
	b.Execute(0, 5)
	for i := range a.Price {
		if a.Price[i] != b.Price[i] {
			t.Fatalf("option %d priced differently across orders", i)
		}
	}
}

// TestLiveBlackScholesOptionAllocations bounds the per-option cost of the
// live kernel to its own noise stream: the Monte-Carlo loop allocates
// nothing.
func TestLiveBlackScholesOptionAllocations(t *testing.T) {
	bs := NewLiveBlackScholes(1, 64, 4, 3)
	if n := testing.AllocsPerRun(100, func() { bs.Execute(0, 1) }); n > 2 {
		t.Errorf("Execute of one option allocates %.0f objects, want at most 2", n)
	}
}

// BenchmarkLiveBlackScholesOption prices one option at the shape the live
// benchmark workload runs (1,024 paths of one step).
func BenchmarkLiveBlackScholesOption(b *testing.B) {
	bs := NewLiveBlackScholes(1, 1024, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bs.Execute(0, 1)
	}
}

func TestLiveGRNCorrectness(t *testing.T) {
	g := NewLiveGRN(60, 24, 11)
	g.Execute(30, 60)
	g.Execute(0, 30)
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLiveGRNFindsPlantedRegulators(t *testing.T) {
	g := NewLiveGRN(50, 200, 13)
	g.Execute(0, 50)
	// Gene 0's best partner should score highly: the target is a function
	// of genes 0 and 1 with 10% noise, so the pair (0,1) explains ≥ ~80%.
	if g.BestPartner[0] != 1 {
		// Another partner may tie by chance; the score must still be high.
		if g.BestScore[0] < 0.75 {
			t.Errorf("gene 0 best pair score %g with partner %d; expected planted structure",
				g.BestScore[0], g.BestPartner[0])
		}
	}
	if g.BestScore[0] < g.BestScore[25] {
		t.Logf("note: planted pair scored below a random gene (%g < %g)",
			g.BestScore[0], g.BestScore[25])
	}
}
