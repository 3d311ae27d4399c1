package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// resultSet is several runs in one file: what the suite and -aa write and
// what -compare reads. A single run's result file is read as a set of one.
type resultSet struct {
	Runs []runResult `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(blob, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		var one runResult
		if err := json.Unmarshal(blob, &one); err != nil || one.Workload == "" {
			return nil, fmt.Errorf("%s: neither a result set nor a run result", path)
		}
		set.Runs = []runResult{one}
	}
	return &set, nil
}

func writeResultSet(path string, set *resultSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// values collects a metric's value from every run of a workload.
func (s *resultSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does, so spreads agree with the driver's.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return ratio(q3-q1, median(v))
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(def metricDef, a, b float64) float64 {
	if def.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// compareSets prints a row per (workload, metric) and returns the number of
// regressions: end-to-end metrics whose median worsened by more than their
// bound while both sides' own spread stayed inside it.
func compareSets(w io.Writer, a, b *resultSet) int {
	regressions := 0
	fmt.Fprintf(w, "%-12s %-34s %14s %14s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "worse", "bound", "verdict")
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, wl := range workloads {
		for _, def := range defs {
			va, vb := a.values(wl.name, def.name), b.values(wl.name, def.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worsening(def, ma, mb)
			verdict, bound := "", "-"
			if def.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", def.bound*100)
				switch {
				case spread(va) > def.bound || spread(vb) > def.bound:
					verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", spread(va)*100, spread(vb)*100)
				case worse > def.bound:
					verdict = "REGRESSION"
					regressions++
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(w, "%-12s %-34s %14.4f %14.4f %+7.1f%% %7s  %s\n", wl.name, def.name, ma, mb, worse*100, bound, verdict)
		}
	}
	return regressions
}

func compareFiles(w io.Writer, oldPath, newPath string) int {
	a, err := readResultSet(oldPath)
	if err != nil {
		fatal(err)
	}
	b, err := readResultSet(newPath)
	if err != nil {
		fatal(err)
	}
	if ha, hb := a.Runs[0].Host, b.Runs[0].Host; ha.CPUModel != hb.CPUModel || ha.NumCPU != hb.NumCPU || ha.WALDirFS != hb.WALDirFS {
		fmt.Fprintf(w, "# warning: the two sets come from different hosts (%+v vs %+v); times are not comparable\n", ha, hb)
	}
	if n := compareSets(w, a, b); n > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", n)
		return 1
	}
	return 0
}

// runChild runs one (workload, traced or not) in a child process, so each
// run has its own heap and its own peak memory, and reads back its result.
func runChild(workload string, seed int64, seconds float64, trace int, out string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace), "-out", out)
	cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s trace=%d: %w", workload, trace, err)
	}
	set, err := readResultSet(filepath.Join(out, resultName(workload, trace)))
	if err != nil {
		return nil, err
	}
	return &set.Runs[0], nil
}

// runSuite runs every workload untraced and, when traced is set, traced as
// well, prints each run's metrics and writes them together as suite.json.
func runSuite(seed int64, seconds float64, out string, traced bool, w *os.File) (*resultSet, error) {
	set := &resultSet{}
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && !traced {
				continue
			}
			res, err := runChild(wl.name, seed, seconds, trace, out)
			if err != nil {
				return nil, err
			}
			if w != nil {
				printMetrics(w, res)
			}
			set.Runs = append(set.Runs, *res)
		}
	}
	return set, writeResultSet(filepath.Join(out, "suite.json"), set)
}

// runAA runs the untraced suite n times on this tree, each time with another
// seed, and reports how far each end-to-end metric moved on its own.
func runAA(n int, seed int64, seconds float64, out string) int {
	all := &resultSet{}
	for i := 0; i < n; i++ {
		set, err := runSuite(seed+int64(i), seconds, out, false, nil)
		if err != nil {
			fatal(err)
		}
		all.Runs = append(all.Runs, set.Runs...)
	}
	if err := writeResultSet(filepath.Join(out, "aa.json"), all); err != nil {
		fatal(err)
	}
	outside := 0
	fmt.Printf("%-12s %-16s %12s %12s %12s %8s %7s  %s\n", "workload", "metric", "min", "median", "max", "spread", "bound", "inside")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			v := all.values(wl.name, def.name)
			sort.Float64s(v)
			inside := spread(v) <= def.bound
			if !inside {
				outside++
			}
			fmt.Printf("%-12s %-16s %12.4f %12.4f %12.4f %7.1f%% %6.0f%%  %v\n",
				wl.name, def.name, v[0], median(v), v[len(v)-1], spread(v)*100, def.bound*100, inside)
		}
	}
	if outside > 0 {
		return 1
	}
	return 0
}
