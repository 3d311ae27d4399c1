package txcache_test

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// goCommand is the go command of the toolchain running the tests.
func goCommand() string {
	bin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(bin); err != nil {
		return "go"
	}
	return bin
}

// TestBenchmarkCompiles vets the benchmark against this tree. benchmark/ is a
// nested module the root's ./... never compiles, so without this a change to
// a symbol it uses would pass every other test and break only the benchmark's
// own build. go vet type-checks its test files' fakes too. The environment is
// the one benchmark/run.sh builds in: no module proxy, a read-only module
// graph and the local toolchain.
func TestBenchmarkCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go command on the benchmark module")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, goCommand(), "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=readonly", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}
