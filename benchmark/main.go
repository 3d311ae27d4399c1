// Command benchmark measures the whole serve stack end to end and layer by
// layer. It boots its own copy of the paper's Figure-1 topology in one
// process over loopback TCP, drives one of four RUBiS workloads through it,
// checks that the answers are correct, and prints the metrics.
//
// One invocation is one run of one workload:
//
//	benchmark --workload browse_hot --seed 1 --seconds 20 --trace 0
//
// prints the end-to-end metrics; --trace 1 prints the per-layer metrics from
// a traced run and writes a Chrome trace file. The last line of standard
// output is the result as one JSON object. Without --workload the command
// runs every workload both ways, each in a child process, and writes one
// result file per run under -out. -compare and -aa work on those files. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"txcache/internal/rubis"
)

// defaultSeconds is the run length BENCHMARK.json fixes as run_seconds.
const defaultSeconds = 20

func main() {
	var (
		wname   = flag.String("workload", "", "workload to run: browse_hot, browse_cold, bidding or write_heavy (empty: the whole suite)")
		seed    = flag.Int64("seed", 1, "seed of the dataset and of every request stream")
		seconds = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics; 0 prints the end-to-end metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result and trace files")
		probes  = flag.Bool("probes", false, "run only the layer probes and print their metrics")
		compare = flag.Bool("compare", false, "compare two result sets: -compare old.json new.json")
		aa      = flag.Int("aa", 0, "run the untraced suite this many times on this tree and report each metric's spread")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *probes:
		res := &runResult{Workload: "probes", Trace: 1, Metrics: map[string]metricValue{}, Host: fingerprint()}
		err := runProbes(func(name, unit string, v float64, n int) {
			res.Metrics[name] = metricValue{Value: v, Unit: unit, Samples: n}
		})
		if err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, res)
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds, *out))
	case *wname == "":
		if _, err := runSuite(*seed, *seconds, *out, true, os.Stdout); err != nil {
			fatal(err)
		}
	default:
		w, ok := workloadByName(*wname)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *wname))
		}
		res, err := run(runSpec{
			w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *out,
			scale: rubis.InMemoryScale, warmup: warmupRequests, setups: setupRepeats, probes: true,
		})
		if err != nil {
			if res != nil {
				printMetrics(os.Stderr, res)
			}
			fatal(err)
		}
		if err := writeResult(*out, res); err != nil {
			fatal(err)
		}
		printMetrics(os.Stdout, res)
		printDriverLine(os.Stdout, res)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// resultName is the file a run's result is written to.
func resultName(workload string, trace int) string {
	if trace != 0 {
		return workload + ".trace1.json"
	}
	return workload + ".json"
}

func writeResult(dir string, res *runResult) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, resultName(res.Workload, res.Trace)), append(blob, '\n'), 0o644)
}

// printMetrics prints every metric of a run by name, with its unit.
func printMetrics(w *os.File, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d trace=%d attempted=%d failed=%d\n", res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.4f %-6s", n, m.Value, m.Unit)
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		fmt.Fprintln(w)
	}
}

// printDriverLine prints the run as the one JSON object the driver reads
// from the last line of standard output.
func printDriverLine(w *os.File, res *runResult) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]mv{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = mv{m.Value, m.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(blob))
}
