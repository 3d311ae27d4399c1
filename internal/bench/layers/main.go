// Command layers turns the output of `go test -bench` into
// BENCH_layers.json: `go run ./internal/bench/layers results.txt out.json`.
// `make bench-json` runs `make bench` five times over and calls it.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"txcache/internal/bench"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: layers <go test -bench output> <BENCH_layers.json>")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(in, out string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	l, err := bench.ParseLayers(f)
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(blob, '\n'), 0o644)
}
