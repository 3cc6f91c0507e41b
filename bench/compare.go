package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet holds the runs of one file, grouped by workload and trace mode,
// in file order.
type runSet map[string][]record

func runKey(workload string, trace int) string { return fmt.Sprintf("%s/trace%d", workload, trace) }

func loadRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		name, _ := rec.Env["workload"].(string)
		trace, _ := rec.Env["trace"].(float64)
		k := runKey(name, int(trace))
		set[k] = append(set[k], rec)
	}
	return set, sc.Err()
}

// quartiles returns the first and third quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// values returns metric name's value in every run that reported it.
func values(runs []record, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// summary is a median with its quartiles and relative spread.
type summary struct {
	median, q1, q3, spread float64
}

func summarize(v []float64) summary {
	s := summary{median: median(v)}
	s.q1, s.q3 = quartiles(v)
	s.spread = (s.q3 - s.q1) / math.Abs(s.median)
	return s
}

// verdict judges a change's runs against its parent's for one metric,
// following the rules of the repository's benchmark: a gain needs the
// change to win at least 9 of every 10 pairs (run i of one side against run
// i of the other; ties count for neither) and the medians to differ by more
// than the parent's interquartile range; a metric whose parent spread is
// wider than its bound is unresolved unless every run of the change beats
// every run of the parent.
func verdict(base, cur []float64, higherBetter bool, bound float64) (string, int, int) {
	improves := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	pairs := min(len(base), len(cur))
	wins := 0
	for i := 0; i < pairs; i++ {
		if improves(cur[i], base[i]) {
			wins++
		}
	}
	b, c := summarize(base), summarize(cur)
	worse := (c.median - b.median) / math.Abs(b.median)
	if higherBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range cur {
		for _, y := range base {
			if !improves(x, y) {
				allBetter = false
			}
		}
	}
	gain := wins*10 >= 9*pairs && math.Abs(c.median-b.median) > b.q3-b.q1 && worse < 0
	switch {
	case b.spread > bound && !allBetter:
		return "unresolved", wins, pairs
	case gain:
		return "better", wins, pairs
	case worse > bound:
		return "REGRESSION", wins, pairs
	default:
		return "within bound", wins, pairs
	}
}

// compareMain implements "bench compare [-spec BENCHMARK.json] base.jsonl
// [new.jsonl]". With one file it prints each metric's median, quartiles and
// spread against its bound; with two it also judges the second file's runs
// against the first's.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) < 1 || len(files) > 2 {
		return errors.New("usage: bench compare [-spec BENCHMARK.json] base.jsonl [new.jsonl]")
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := loadRuns(files[0])
	if err != nil {
		return err
	}
	var cur runSet
	if len(files) == 2 {
		if cur, err = loadRuns(files[1]); err != nil {
			return err
		}
	}
	for _, wl := range workloads {
		if b := base[runKey(wl.name, 0)]; len(b) > 0 {
			fmt.Fprintf(w, "\n== %s: end-to-end, %d base runs", wl.name, len(b))
			var c []record
			if cur != nil {
				c = cur[runKey(wl.name, 0)]
				fmt.Fprintf(w, ", %d new runs", len(c))
			}
			fmt.Fprintf(w, " ==\n%-18s %-6s %6s   %-34s", "metric", "unit", "bound", "base median [q1, q3] spread")
			if c != nil {
				fmt.Fprintf(w, " %-34s %8s %6s  %s", "new median [q1, q3] spread", "change", "pairs", "verdict")
			}
			fmt.Fprintln(w)
			for _, m := range spec.EndToEnd {
				bv := values(b, m.Name)
				if len(bv) == 0 {
					continue
				}
				bs := summarize(bv)
				fmt.Fprintf(w, "%-18s %-6s %5.1f%%   %-34s", m.Name, m.Unit, 100*m.Bound, formatSummary(bs))
				if cv := values(c, m.Name); len(cv) > 0 {
					cs := summarize(cv)
					v, wins, pairs := verdict(bv, cv, m.Better == "higher", m.Bound)
					fmt.Fprintf(w, " %-34s %+7.2f%% %3d/%-3d %s", formatSummary(cs),
						100*(cs.median-bs.median)/math.Abs(bs.median), wins, pairs, v)
				} else if bs.spread > m.Bound {
					fmt.Fprint(w, " spread exceeds bound")
				}
				fmt.Fprintln(w)
			}
		}
		if b := base[runKey(wl.name, 1)]; len(b) > 0 {
			fmt.Fprintf(w, "\n== %s: per-layer, %d traced base runs ==\n", wl.name, len(b))
			var c []record
			if cur != nil {
				c = cur[runKey(wl.name, 1)]
			}
			for _, m := range spec.PerLayer {
				bv := values(b, m.Name)
				if len(bv) == 0 {
					continue
				}
				fmt.Fprintf(w, "%-28s %-6s %-34s", m.Name, m.Unit, formatSummary(summarize(bv)))
				if cv := values(c, m.Name); len(cv) > 0 {
					fmt.Fprintf(w, " %-34s", formatSummary(summarize(cv)))
				}
				fmt.Fprintln(w)
			}
		}
	}
	return nil
}

func formatSummary(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %.2f%%", s.median, s.q1, s.q3, 100*s.spread)
}
