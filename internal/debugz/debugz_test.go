package debugz

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// start runs Start with the log captured, and returns what it logged.
func start(t *testing.T, addr string, stats func() any) string {
	t.Helper()
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	if err := Start(addr, stats); err != nil {
		t.Fatal(err)
	}
	return logged.String()
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestSurface: asked for, the surface serves the daemon's own counters as
// the value its stats function returned, and a heap profile of the process.
func TestSurface(t *testing.T) {
	type counters struct {
		Lookups uint64 `json:"lookups"`
		Horizon uint64 `json:"horizon"`
	}
	want := counters{Lookups: 7, Horizon: 30}
	logged := start(t, "127.0.0.1:0", func() any { return want })
	base := regexp.MustCompile(`http://[0-9.:]+/`).FindString(logged)
	if base == "" {
		t.Fatalf("Start logged no address: %q", logged)
	}

	code, body := get(t, base+"statsz")
	var got counters
	if err := json.Unmarshal([]byte(body), &got); code != http.StatusOK || err != nil || got != want {
		t.Fatalf("/statsz = %d %q (%v), want %+v", code, body, err, want)
	}
	code, body = get(t, base+"debug/pprof/heap?debug=1")
	if code != http.StatusOK || !strings.Contains(body, "heap profile") {
		t.Fatalf("/debug/pprof/heap = %d:\n%.200s", code, body)
	}
}

// TestSurfaceOff: not asked for, the surface opens no listener and switches
// heap sampling off.
func TestSurfaceOff(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	goroutines := runtime.NumGoroutine()
	if logged := start(t, "", func() any { panic("stats read with no surface") }); logged != "" {
		t.Fatalf("Start(\"\") logged %q", logged)
	}
	if runtime.MemProfileRate != 0 {
		t.Fatalf("runtime.MemProfileRate = %d after Start(\"\"), want 0", runtime.MemProfileRate)
	}
	if n := runtime.NumGoroutine(); n != goroutines {
		t.Fatalf("Start(\"\") left %d goroutines, had %d", n, goroutines)
	}
}

// TestProfilerStaysInDaemons: the profiler is linked by daemons, never by
// the library. A package that has runtime/pprof among its dependencies puts
// the heap sampler into every program that links it — the benchmark's
// in-process stack included — where it holds about 1.5 MiB for profiles
// nobody reads. Only cmd/ and this package may link it.
func TestProfilerStaysInDaemons(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", "-f",
		`{{if not .Standard}}{{.ImportPath}}{{range .Deps}} {{.}}{{end}}{{end}}`, "txcache/...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	listed := 0
	for _, line := range strings.Split(string(out), "\n") {
		pkg, deps, _ := strings.Cut(line, " ")
		if pkg == "" {
			continue
		}
		listed++
		if strings.HasPrefix(pkg, "txcache/cmd/") || pkg == "txcache/internal/debugz" {
			continue
		}
		for _, dep := range strings.Fields(deps) {
			if dep == "runtime/pprof" {
				t.Errorf("%s links runtime/pprof: the profiler belongs to a daemon's -debug-addr (internal/debugz), not to the library (DESIGN.md \"The library links no profiler\")", pkg)
			}
		}
	}
	if listed < 10 {
		t.Fatalf("go list named %d of the module's packages:\n%s", listed, out)
	}
}
