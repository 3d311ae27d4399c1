// Command txcache-bench regenerates the paper's evaluation (§8): every
// figure and table, printed as the same rows/series the paper reports and,
// with -json, written as one machine-readable report.
//
// Usage:
//
//	txcache-bench -exp all -json BENCH_paper.json   # everything (several minutes); the committed file
//	txcache-bench -exp fig5a -measure 5s            # one experiment, longer runs
//	txcache-bench -exp fig8 -scale test             # quick, reduced dataset
//	txcache-bench -exp fig5a -cpuprofile cpu.prof   # where a figure's time goes
//
// Absolute numbers depend on the machine; the shapes — who wins, by what
// factor, where the curves flatten — are what reproduce the paper. See
// EXPERIMENTS.md for the mapping of scaled parameters to the paper's.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"txcache/internal/bench"
	"txcache/internal/rubis"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("txcache-bench: %v", err)
	}
}

func run() error {
	var names []string
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, ", ")+", all")
	jsonPath := flag.String("json", "", "write every series of the run, its options and a host fingerprint to this file (BENCH_paper.json is -exp all at the default scale)")
	clients := flag.Int("clients", 2*runtime.GOMAXPROCS(0), "closed-loop client population")
	warm := flag.Duration("warm", 2*time.Second, "warmup per point")
	measure := flag.Duration("measure", 3*time.Second, "measurement per point")
	scale := flag.String("scale", "paper", "dataset: paper (each configuration at its scaled-down paper size) or test (tiny, for smoke runs)")
	seed := flag.Int64("seed", 1, "workload seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	o := bench.Opts{Clients: *clients, Warm: *warm, Measure: *measure, Seed: *seed, Out: os.Stdout}
	switch *scale {
	case "paper":
	case "test":
		o.Scale = rubis.TestScale
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	todo := bench.Experiments
	if *exp != "all" {
		todo = nil
		for _, e := range bench.Experiments {
			if e.Name == *exp {
				todo = append(todo, e)
			}
		}
		if todo == nil {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("txcache-bench: -memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recent frees so the profile shows live + cumulative accurately
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Printf("txcache-bench: -memprofile: %v", err)
			}
		}()
	}

	report := bench.Report{
		Host: bench.Fingerprint(),
		Options: bench.RunOptions{
			Scale: *scale, Clients: *clients, Seed: *seed,
			WarmS: warm.Seconds(), MeasureS: measure.Seconds(),
		},
	}
	for _, e := range todo {
		fmt.Printf("\n=== %s ===\n", e.Name)
		start := time.Now()
		fig, err := e.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		// A point that served nothing is a broken run, not a measurement.
		for _, s := range fig.Series {
			for _, p := range s.Points {
				if p.ReqPerS <= 0 {
					return fmt.Errorf("%s: series %q: no throughput at x=%g", e.Name, s.Label, p.X)
				}
			}
		}
		report.Figures = append(report.Figures, fig)
		fmt.Printf("--- %s done in %v ---\n", e.Name, time.Since(start).Round(time.Second))
	}
	if *jsonPath != "" {
		return report.Write(*jsonPath)
	}
	return nil
}
