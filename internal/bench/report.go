package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Experiments are the paper's evaluation in the order -exp all runs it:
// what txcache-bench accepts, and every figure BENCH_paper.json holds.
var Experiments = []struct {
	Name string
	Run  func(Opts) (Figure, error)
}{
	{"baseline", Baseline},
	{"fig5a", Figure5a},
	{"fig6a", Figure6a},
	{"fig5b", Figure5b},
	{"fig6b", Figure6b},
	{"fig7", Figure7},
	{"fig8", Figure8},
}

// Point is one measured deployment.
type Point struct {
	X       float64 `json:"x"`
	ReqPerS float64 `json:"req_per_s"`
	HitRate float64 `json:"hit_rate"`
	// MissPct is set on Figure 8's points only.
	MissPct *MissBreakdown `json:"miss_pct,omitempty"`
}

// Series is one line of a figure (or one row of a table).
type Series struct {
	Label  string  `json:"label"`
	Points []Point `json:"points"`
}

// Figure is one experiment's output: the series the paper plots.
type Figure struct {
	Name string `json:"name"`
	// X says what Point.X measures: "cache_bytes", "staleness_paper_s", or
	// "none" for a table whose rows are its series.
	X      string   `json:"x"`
	Series []Series `json:"series"`
}

// add appends p to the series labelled label, creating it on first use. It
// rounds p to what a run can resolve, so a diff of two reports shows what
// moved and not the fifteenth digit.
func (f *Figure) add(label string, p Point) {
	p.ReqPerS = math.Round(p.ReqPerS)
	p.HitRate = math.Round(p.HitRate*1e4) / 1e4
	for i := range f.Series {
		if f.Series[i].Label == label {
			f.Series[i].Points = append(f.Series[i].Points, p)
			return
		}
	}
	f.Series = append(f.Series, Series{Label: label, Points: []Point{p}})
}

// Host says where a report was measured: throughput from two hosts is not
// comparable, shapes are. The fields are benchmark/'s fingerprint, less the
// WAL's filesystem — these runs write no log.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	// GitRev is HEAD, with "+dirty" when the tree it measured differs.
	GitRev string `json:"git_rev"`
}

// Fingerprint describes this process's host and source tree.
func Fingerprint() Host {
	h := Host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitRev: "unknown",
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if blob, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(blob))
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.GitRev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			h.GitRev += "+dirty"
		}
	}
	return h
}

// RunOptions are the knobs a report's numbers depend on.
type RunOptions struct {
	Scale    string  `json:"scale"`
	Clients  int     `json:"clients"`
	WarmS    float64 `json:"warm_s"`
	MeasureS float64 `json:"measure_s"`
	Seed     int64   `json:"seed"`
}

// Report is BENCH_paper.json: what was run, where, and every series.
type Report struct {
	Host    Host       `json:"host"`
	Options RunOptions `json:"options"`
	Figures []Figure   `json:"figures"`
}

// Write stores r at path as indented JSON.
func (r *Report) Write(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
