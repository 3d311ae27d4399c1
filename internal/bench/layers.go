package bench

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// Layers is BENCH_layers.json: every microbenchmark of `make bench`, run k
// times, as the spread of its per-op figures. `make bench-json` writes it;
// `git log -p BENCH_layers.json` is then a layer's before and after.
type Layers struct {
	Host Host `json:"host"`
	// K is the fewest runs any benchmark had.
	K          int        `json:"k"`
	Benchmarks []LayerRow `json:"benchmarks"`
}

// LayerRow is one benchmark's runs. The name is as `go test` prints it,
// less the -GOMAXPROCS suffix. A benchmark run without -benchmem has no
// Bytes or Allocs.
type LayerRow struct {
	Pkg    string  `json:"pkg"`
	Name   string  `json:"name"`
	K      int     `json:"k"`
	NsOp   Spread  `json:"ns_per_op"`
	Bytes  *Spread `json:"bytes_per_op,omitempty"`
	Allocs *Spread `json:"allocs_per_op,omitempty"`
}

// Spread is the median, min and max of one figure over a benchmark's runs.
type Spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func spread(v []float64) Spread {
	v = slices.Clone(v)
	slices.Sort(v)
	med := v[len(v)/2]
	if len(v)%2 == 0 {
		med = (v[len(v)/2-1] + med) / 2
	}
	return Spread{Median: med, Min: v[0], Max: v[len(v)-1]}
}

// benchLine is one result line of `go test -bench`: the name with its
// -GOMAXPROCS suffix, the iteration count, then value-unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// ParseLayers reads the output of `go test -bench` (any number of packages,
// each run any number of times) into a Layers, stamped with this host.
func ParseLayers(r io.Reader) (*Layers, error) {
	type runs struct{ ns, bytes, allocs []float64 }
	var (
		order []LayerRow // pkg and name, in first-seen order
		seen  = map[[2]string]*runs{}
		pkg   string
	)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		key := [2]string{pkg, m[1]}
		rs := seen[key]
		if rs == nil {
			rs = &runs{}
			seen[key] = rs
			order = append(order, LayerRow{Pkg: pkg, Name: m[1]})
		}
		f := strings.Fields(m[2])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%q: %v", line, err)
			}
			switch f[i+1] {
			case "ns/op":
				rs.ns = append(rs.ns, v)
			case "B/op":
				rs.bytes = append(rs.bytes, v)
			case "allocs/op":
				rs.allocs = append(rs.allocs, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark results")
	}
	l := &Layers{Host: Fingerprint()}
	for _, row := range order {
		rs := seen[[2]string{row.Pkg, row.Name}]
		if len(rs.ns) == 0 {
			return nil, fmt.Errorf("%s %s: no ns/op", row.Pkg, row.Name)
		}
		row.K, row.NsOp = len(rs.ns), spread(rs.ns)
		if len(rs.bytes) > 0 {
			s := spread(rs.bytes)
			row.Bytes = &s
		}
		if len(rs.allocs) > 0 {
			s := spread(rs.allocs)
			row.Allocs = &s
		}
		if l.K == 0 || row.K < l.K {
			l.K = row.K
		}
		l.Benchmarks = append(l.Benchmarks, row)
	}
	return l, nil
}
