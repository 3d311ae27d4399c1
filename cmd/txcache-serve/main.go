// Command txcache-serve runs the application server: the RUBiS interactions
// exposed over HTTP through the TxCache client library, against an
// already-running txcache-dbd (which hosts the pincushion on its own
// address) and cache nodes. It is the tier the paper's "application server"
// boxes in Figure 1 denote — the piece that turns library transactions into
// production request/response traffic.
//
// Usage:
//
//	txcache-serve -listen :8080 -db db:7700 \
//	    -caches cache1:7500,cache2:7500
//
// The dataset must already be loaded (txcache-dbd -load-rubis); the server
// recovers ID allocators and dataset ranges from the database at startup.
//
// On SIGTERM/SIGINT the server drains: the listener closes, queued requests
// are shed with 503s, in-flight requests run to completion until
// -drain-timeout, then anything still running is hard-cancelled through its
// transaction context.
//
// The application listener serves /healthz and /statsz, every tier's
// counters on one page; profiles are on -debug-addr (internal/debugz).
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"txcache/internal/debugz"
	"txcache/internal/rpc"
	"txcache/internal/serve"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP address to listen on")
	dbAddr := flag.String("db", "127.0.0.1:7700", "txcache-dbd address (the pincushion's too)")
	caches := flag.String("caches", "", "comma-separated cache node addresses")
	staleness := flag.Duration("staleness", 10*time.Second, "page staleness bound")
	requestTimeout := flag.Duration("request-timeout", 2*time.Second, "per-request deadline")
	maxInFlight := flag.Int("max-inflight", 256, "concurrent requests admitted into the library")
	maxQueue := flag.Int("max-queue", 1024, "queued requests beyond which arrivals are shed")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-drain bound before in-flight work is hard-cancelled")
	dbPool := flag.Int("db-conns", 8, "database sessions dialed up front (more are dialed while all are leased)")
	debugAddr := flag.String("debug-addr", "", "serve /statsz and /debug/pprof/ here (empty: no debug surface, heap sampling off)")
	flag.Parse()

	// The surface starts before the dials and the attach, so a slow start
	// can be profiled; /statsz reads null until the server exists. The
	// application listener's own /statsz is the page for the whole stack.
	var serving atomic.Pointer[serve.Server]
	if err := debugz.Start(*debugAddr, func() any {
		if srv := serving.Load(); srv != nil {
			return srv.Stats().Snapshot()
		}
		return nil
	}); err != nil {
		log.Fatalf("txcache-serve: -debug-addr: %v", err)
	}

	d := serve.Deployment{Net: rpc.TCP, DB: *dbAddr, DBConns: *dbPool,
		Caches: strings.Fields(strings.ReplaceAll(*caches, ",", " "))}
	attachCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	srv, closeClients, err := serve.Connect(attachCtx, d, serve.Config{
		RequestTimeout: *requestTimeout,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		Staleness:      *staleness,
		Logf:           log.Printf,
	})
	cancel()
	if err != nil {
		log.Fatalf("txcache-serve: %v", err)
	}
	serving.Store(srv)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("txcache-serve: %v", err)
	}
	log.Printf("txcache-serve: serving on %s (%d cache nodes, staleness %v)",
		l.Addr(), len(d.Caches), *staleness)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		log.Fatalf("txcache-serve: %v", err)
	case sig := <-sigc:
		log.Printf("txcache-serve: %v: draining (bound %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		start := time.Now()
		if err := srv.Drain(ctx); err != nil {
			log.Printf("txcache-serve: drain: %v", err)
		}
		st := srv.Stats().Snapshot()
		log.Printf("txcache-serve: drained in %v: %d requests served, %d shed, %d canceled",
			time.Since(start).Round(time.Millisecond), st.Requests, st.Shed, st.Canceled)
		closeClients()
	}
}
