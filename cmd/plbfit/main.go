// Command plbfit samples a device's execution-time curve for one
// application kernel, fits the paper's performance model F_p[x] (Eq. 1) to
// the samples, and prints the measured-vs-fitted series — a command-line
// reproduction of the paper's Fig. 1.
//
// Usage:
//
//	plbfit -app mm -size 32768 -device k20c
//	plbfit -app bs -size 500000 -device xeon -points 16
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"plbhec/internal/device"
	"plbhec/internal/expt"
	"plbhec/internal/profile"
)

func deviceByName(name string) (device.Spec, bool) {
	for _, s := range device.TableISpecs() {
		key := strings.ToLower(strings.ReplaceAll(s.Name, " ", ""))
		if strings.Contains(key, strings.ToLower(name)) {
			return s, true
		}
	}
	return device.Spec{}, false
}

func main() {
	var (
		app    = flag.String("app", "mm", "application: mm | grn | bs")
		size   = flag.Int64("size", 32768, "input size")
		dev    = flag.String("device", "k20c", "device substring: k20c, 295, 680, titan, xeon, 920, 4930, 3930")
		points = flag.Int("points", 12, "number of sampled block sizes")
		seed   = flag.Int64("seed", 42, "noise seed")
	)
	flag.Parse()

	spec, ok := deviceByName(*dev)
	if !ok {
		fmt.Fprintf(os.Stderr, "plbfit: unknown device %q\n", *dev)
		os.Exit(2)
	}
	kind := expt.AppKind(*app)
	if err := expt.CheckApp(kind, *size); err != nil {
		fmt.Fprintf(os.Stderr, "plbfit: %v\n", err)
		os.Exit(2)
	}
	a := expt.MakeApp(kind, *size)
	prof := a.Profile()
	d := device.New(spec, *seed, 0.015)

	lo := expt.InitialBlock(kind, *size, 4)
	hi := float64(a.TotalUnits()) / 4
	sampler := profile.NewSampler(1)
	var xs []float64
	for i := 0; i < *points; i++ {
		x := lo * math.Pow(hi/lo, float64(i)/float64(*points-1))
		sampler.Add(0, x, d.ExecSeconds(prof, x), 0)
		xs = append(xs, x)
	}
	ms, err := sampler.FitAll(hi * 2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plbfit: %v\n", err)
		os.Exit(1)
	}
	m := ms.PU[0]
	fmt.Printf("device: %s   kernel: %s   model: %v\n\n", spec.Name, prof.Name, m.F)
	fmt.Printf("%12s %14s %14s %10s\n", "block size", "measured s", "fitted s", "error %")
	for _, x := range xs {
		meas := d.NominalExecSeconds(prof, x)
		fit := m.F.Eval(x)
		fmt.Printf("%12.0f %14.6f %14.6f %9.2f%%\n", x, meas, fit, 100*(fit-meas)/meas)
	}
	fmt.Printf("\nR² = %.4f (paper's acceptance bar: ≥ %.1f)\n", m.F.R2, profile.GoodFitR2)
}
