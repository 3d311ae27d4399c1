package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const (
	layersFile = "../../BENCH_layers.json"
	makefile   = "../../Makefile"
)

// benchPattern is one alternative of a `make bench` -bench pattern and the
// import paths of the packages it runs in: some row of one of them must
// answer it.
type benchPattern struct {
	name string
	pkgs []string
}

// makeBench reads `make bench`'s list off the Makefile.
func makeBench(t *testing.T) []benchPattern {
	t.Helper()
	blob, err := os.ReadFile(makefile)
	if err != nil {
		t.Fatal(err)
	}
	_, target, ok := strings.Cut(string(blob), "\nbench:\n")
	if !ok {
		t.Fatalf("%s has no bench target", makefile)
	}
	target, _, _ = strings.Cut(target, "\n\n")
	line := regexp.MustCompile(`-bench '?([^' ]+)'? (.*)$`)
	var want []benchPattern
	for _, l := range strings.Split(target, "\n") {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("bench target line %q names no benchmarks", l)
		}
		var pkgs []string
		for _, dir := range strings.Fields(m[2]) {
			if strings.HasPrefix(dir, ".") {
				pkgs = append(pkgs, "txcache"+strings.TrimPrefix(dir, "."))
			}
		}
		for _, name := range strings.Split(m[1], "|") {
			want = append(want, benchPattern{name, pkgs})
		}
	}
	return want
}

// checkLayers holds a Layers to what `make bench-json` writes: a host
// fingerprint, k runs of every benchmark, sane figures, and every pattern
// of `make bench` answered.
func checkLayers(l *Layers, want []benchPattern) error {
	if l.Host.GitRev == "" || l.Host.CPUModel == "" || l.Host.GOMAXPROCS == 0 || l.Host.GoVersion == "" {
		return fmt.Errorf("no host fingerprint: %+v", l.Host)
	}
	if l.K < 5 {
		return fmt.Errorf("k = %d, want at least 5 runs of every benchmark", l.K)
	}
	for _, r := range l.Benchmarks {
		if r.K < l.K {
			return fmt.Errorf("%s: %d runs, the file says at least %d", r.Name, r.K, l.K)
		}
		for what, s := range map[string]*Spread{"ns/op": &r.NsOp, "B/op": r.Bytes, "allocs/op": r.Allocs} {
			if s == nil {
				return fmt.Errorf("%s: no %s (run without -benchmem?)", r.Name, what)
			}
			if s.Min < 0 || s.Min > s.Median || s.Median > s.Max || (what == "ns/op" && s.Min == 0) {
				return fmt.Errorf("%s: %s spread %+v", r.Name, what, *s)
			}
		}
	}
	for _, p := range want {
		found := false
		for _, r := range l.Benchmarks {
			found = found || (slices.Contains(p.pkgs, r.Pkg) && strings.HasPrefix(r.Name, p.name))
		}
		if !found {
			return fmt.Errorf("%s %v: in make bench, not in the file", p.name, p.pkgs)
		}
	}
	return nil
}

func TestLayersFile(t *testing.T) {
	blob, err := os.ReadFile(layersFile)
	if err != nil {
		t.Fatal(err)
	}
	want := makeBench(t)
	load := func(t *testing.T) *Layers {
		t.Helper()
		var l Layers
		if err := json.Unmarshal(blob, &l); err != nil {
			t.Fatalf("%s: %v", layersFile, err)
		}
		return &l
	}
	row := func(t *testing.T, l *Layers, name string) *LayerRow {
		t.Helper()
		for i := range l.Benchmarks {
			if l.Benchmarks[i].Name == name {
				return &l.Benchmarks[i]
			}
		}
		t.Fatalf("%s has no %s", layersFile, name)
		return nil
	}

	t.Run("ValidFlow", func(t *testing.T) {
		if err := checkLayers(load(t), want); err != nil {
			t.Errorf("%s: %v (regenerate it with make bench-json)", layersFile, err)
		}
	})

	// Each case bends the committed file one way a regenerated one could
	// have gone wrong, and the check must say so.
	t.Run("RejectionFlow", func(t *testing.T) {
		for _, c := range []struct {
			name   string
			bend   func(t *testing.T, l *Layers)
			reject string
		}{
			{"no fingerprint", func(t *testing.T, l *Layers) { l.Host = Host{} }, "fingerprint"},
			{"one run", func(t *testing.T, l *Layers) { l.K = 1 }, "k = 1"},
			{"a benchmark short of runs", func(t *testing.T, l *Layers) {
				row(t, l, "BenchmarkRawRoundTrip").K = l.K - 1
			}, "BenchmarkRawRoundTrip"},
			{"a benchmark dropped", func(t *testing.T, l *Layers) {
				l.Benchmarks = l.Benchmarks[1:]
			}, "not in the file"},
			{"no -benchmem", func(t *testing.T, l *Layers) {
				row(t, l, "BenchmarkCallRoundTrip").Allocs = nil
			}, "allocs/op"},
			{"a spread out of order", func(t *testing.T, l *Layers) {
				r := row(t, l, "BenchmarkCallRoundTrip")
				r.NsOp.Min = r.NsOp.Max + 1
			}, "ns/op spread"},
		} {
			t.Run(c.name, func(t *testing.T) {
				l := load(t)
				c.bend(t, l)
				err := checkLayers(l, want)
				if err == nil || !strings.Contains(err.Error(), c.reject) {
					t.Fatalf("check = %v, want an error naming %q", err, c.reject)
				}
			})
		}
	})

}

// TestParseLayers reads go test -bench output: runs of one benchmark fold
// into one row, a sub-benchmark keeps its name, and unknown units are
// skipped.
func TestParseLayers(t *testing.T) {
	out := "goos: linux\npkg: txcache/internal/rpc\n" +
		"BenchmarkCallRoundTrip-2   \t   100\t     30000 ns/op\t     200 B/op\t       7 allocs/op\n" +
		"BenchmarkCallRoundTrip-2   \t   100\t     10000 ns/op\t     100 B/op\t       5 allocs/op\n" +
		"BenchmarkCallRoundTrip-2   \t   100\t     20000 ns/op\t     150 B/op\t       6 allocs/op\n" +
		"PASS\npkg: txcache/internal/btree\n" +
		"BenchmarkGet/keys=1000-2 \t 5000\t 80.5 ns/op\t 12.0 reads/s\t 0 B/op\t 0 allocs/op\n"
	l, err := ParseLayers(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if l.K != 1 || len(l.Benchmarks) != 2 {
		t.Fatalf("k %d, rows %+v", l.K, l.Benchmarks)
	}
	call, get := l.Benchmarks[0], l.Benchmarks[1]
	if call.Pkg != "txcache/internal/rpc" || call.Name != "BenchmarkCallRoundTrip" || call.K != 3 ||
		call.NsOp != (Spread{Median: 20000, Min: 10000, Max: 30000}) || *call.Allocs != (Spread{Median: 6, Min: 5, Max: 7}) {
		t.Fatalf("rpc row %+v", call)
	}
	if get.Pkg != "txcache/internal/btree" || get.Name != "BenchmarkGet/keys=1000" || get.NsOp.Median != 80.5 || get.Bytes.Max != 0 {
		t.Fatalf("btree row %+v", get)
	}
	if _, err := ParseLayers(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("output with no benchmark in it parsed")
	}
}
