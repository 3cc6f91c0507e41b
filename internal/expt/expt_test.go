package expt

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func quickOpts(buf *bytes.Buffer) Options {
	return Options{Out: buf, Quick: true, Seeds: 2}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must have an experiment.
	want := []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5",
		"fig6", "fig7", "solver", "headline", "ablation", "cloud", "dualgpu",
		"related", "network", "threshold", "blocksize", "noise", "heterogeneity",
		"locality"}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want ≥ %d", len(All()), len(want))
	}
	for _, e := range All() {
		if e.Paper == "" || e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely described", e.ID)
		}
	}
}

func TestMakeAppAndInitialBlock(t *testing.T) {
	for _, kind := range []AppKind{MM, GRN, BS} {
		for _, size := range PaperSizes(kind) {
			app := MakeApp(kind, size)
			if app.TotalUnits() != size {
				t.Errorf("%s-%d: units %d", kind, size, app.TotalUnits())
			}
			for m := 1; m <= 4; m++ {
				if b := InitialBlock(kind, size, m); b < 1 {
					t.Errorf("%s-%d m%d: block %g", kind, size, m, b)
				}
			}
			// More machines → same or smaller initial block.
			if InitialBlock(kind, size, 1) < InitialBlock(kind, size, 4) {
				t.Errorf("%s-%d: block should shrink with machines", kind, size)
			}
		}
	}
}

func TestNewSchedulerUnknown(t *testing.T) {
	if _, err := NewScheduler("nope", 1); err == nil {
		t.Error("unknown scheduler accepted")
	}
	for _, n := range append(PaperSchedulers(), Oracle) {
		if _, err := NewScheduler(n, 8); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestRunCellAggregates(t *testing.T) {
	sc := Scenario{Kind: MM, Size: 2048, Machines: 2, Seeds: 3, BaseSeed: 1}
	res, err := NewRunner(nil, 1).RunCell(sc, PLBHeC)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.N != 3 || res.Makespan.Mean <= 0 {
		t.Errorf("makespan summary = %+v", res.Makespan)
	}
	if len(res.PUNames) != 4 {
		t.Errorf("PUNames = %v", res.PUNames)
	}
	if len(res.DistMean) != 4 {
		t.Errorf("DistMean = %v", res.DistMean)
	}
	var sum float64
	for _, x := range res.DistMean {
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("mean distribution sums to %g", sum)
	}
	if len(res.IdleMean) != 4 {
		t.Errorf("IdleMean = %v", res.IdleMean)
	}
	if res.LastReport == nil {
		t.Error("LastReport missing")
	}
}

func TestSpeedup(t *testing.T) {
	a := &Result{}
	a.Makespan.Mean = 5
	b := &Result{}
	b.Makespan.Mean = 10
	if got := Speedup(a, b); got != 2 {
		t.Errorf("Speedup = %g", got)
	}
	if Speedup(&Result{}, b) != 0 {
		t.Error("zero makespan should yield 0 speedup")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := NewTable("T", "a", "b")
	tab.AddRow("x", 1.5)
	tab.AddRow("with,comma", `with"quote`)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "1.5") {
		t.Errorf("render = %q", out)
	}
	dir := t.TempDir()
	if err := tab.WriteCSV(dir, "t"); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(filepath.Join(dir, "t.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, `"with,comma"`) || !strings.Contains(data, `"with""quote"`) {
		t.Errorf("csv = %q", data)
	}
	// Empty dir is a no-op.
	if err := tab.WriteCSV("", "t"); err != nil {
		t.Error(err)
	}
}

func TestExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (quick mode)")
	}
	// Run every registered experiment end-to-end in quick mode; this is
	// the integration test that keeps the whole harness green.
	for _, e := range All() {
		var buf bytes.Buffer
		o := quickOpts(&buf)
		o.CSVDir = t.TempDir()
		if err := e.Run(o); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
	}
}

func TestFig4ShapeAssertions(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale shape check")
	}
	// The paper's two headline shapes at full MM scale, 4 machines:
	// PLB-HeC > HDSS-or-greedy, and greedy wins at the smallest size.
	r := NewRunner(nil, 1)
	small := Scenario{Kind: MM, Size: 4096, Machines: 4, Seeds: 3, BaseSeed: 1}
	gSmall, err := r.RunCell(small, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	pSmall, err := r.RunCell(small, PLBHeC)
	if err != nil {
		t.Fatal(err)
	}
	if pSmall.Makespan.Mean < gSmall.Makespan.Mean {
		t.Errorf("at 4096 greedy (%.3f) should win over PLB-HeC (%.3f) — §V.a",
			gSmall.Makespan.Mean, pSmall.Makespan.Mean)
	}

	big := Scenario{Kind: MM, Size: 65536, Machines: 4, Seeds: 3, BaseSeed: 1}
	gBig, err := r.RunCell(big, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	pBig, err := r.RunCell(big, PLBHeC)
	if err != nil {
		t.Fatal(err)
	}
	sp := Speedup(pBig, gBig)
	if sp < 1.6 || sp > 3.2 {
		t.Errorf("MM-65536 4-machine speedup = %.2f, expected the paper's ~2.2 regime", sp)
	}
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}
