// Package debugz is a daemon's opt-in debug surface: its own Stats() as
// JSON on /statsz and net/http/pprof's profiles under /debug/pprof/, on a
// listener of their own (-debug-addr). It is the one package outside cmd/
// that links the profiler, and TestProfilerStaysInDaemons keeps it so. A
// program that links no reader of memory profiles has the runtime's heap
// sampling switched off by the linker; one that does samples from its first
// allocation, and the sampler's bucket table and buckets hold about 1.5 MiB
// (DESIGN.md "The library links no profiler"). So a daemon that links this
// package samples only when its operator asked for the surface.
package debugz

import (
	"encoding/json"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Start serves the debug surface on addr for the life of the process. With
// addr empty it serves nothing and switches heap sampling off. Call it first
// thing in main, before the daemon allocates what a profile would sample.
// stats is called on every /statsz request, concurrently with the daemon;
// what it returns is encoded as JSON.
func Start(addr string, stats func() any) error {
	if addr == "" {
		runtime.MemProfileRate = 0
		return nil
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(stats())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index) // the named profiles: heap, goroutine, allocs, …
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("debug surface on http://%s/ (/statsz, /debug/pprof/)", l.Addr())
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go hs.Serve(l)
	return nil
}
