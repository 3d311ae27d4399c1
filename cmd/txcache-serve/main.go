// Command txcache-serve runs the application server: the RUBiS interactions
// (and optionally the wiki subset) exposed over HTTP through the TxCache
// client library, against an already-running txcache-dbd, cache nodes, and
// pincushion. It is the tier the paper's "application server" boxes in
// Figure 1 denote — the piece that turns library transactions into
// production request/response traffic.
//
// Usage:
//
//	txcache-serve -listen :8080 -db db:7700 \
//	    -caches cache1:7500,cache2:7500 -pincushion pc:7600 -wiki
//
// The dataset must already be loaded (txcache-dbd -load-rubis, plus
// -wiki-pages when -wiki is set); the server recovers ID allocators and
// dataset ranges from the database at startup.
//
// On SIGTERM/SIGINT the server drains: the listener closes, queued requests
// are shed with 503s, in-flight requests run to completion until
// -drain-timeout, then anything still running is hard-cancelled through its
// transaction context.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"txcache/internal/cacheserver"
	"txcache/internal/clock"
	"txcache/internal/core"
	"txcache/internal/db/dbnet"
	"txcache/internal/pincushion"
	"txcache/internal/rubis"
	"txcache/internal/serve"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP address to listen on")
	dbAddr := flag.String("db", "127.0.0.1:7700", "txcache-dbd address")
	caches := flag.String("caches", "", "comma-separated cache node addresses")
	pcAddr := flag.String("pincushion", "", "pincushion daemon address (empty: run uncached reads without pins)")
	staleness := flag.Duration("staleness", 10*time.Second, "page staleness bound")
	requestTimeout := flag.Duration("request-timeout", 2*time.Second, "per-request deadline")
	maxInFlight := flag.Int("max-inflight", 256, "concurrent requests admitted into the library")
	maxQueue := flag.Int("max-queue", 1024, "queued requests beyond which arrivals are shed")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful-drain bound before in-flight work is hard-cancelled")
	wiki := flag.Bool("wiki", false, "serve the wiki subset (requires txcache-dbd -wiki-pages)")
	dbPool := flag.Int("db-conns", 8, "database connection pool size")
	flag.Parse()

	dbClient, err := dbnet.Dial(*dbAddr, *dbPool)
	if err != nil {
		log.Fatalf("txcache-serve: dial db %s: %v", *dbAddr, err)
	}
	// Every tier's counters show on /statsz, under these names.
	tiers := map[string]func(context.Context) (json.RawMessage, error){"db": dbClient.StatsJSON}
	nodes := map[string]cacheserver.Node{}
	for _, addr := range strings.Split(*caches, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		cn, err := cacheserver.Dial(addr, 4)
		if err != nil {
			log.Fatalf("txcache-serve: dial cache %s: %v", addr, err)
		}
		nodes[addr] = cn
		tiers["cache "+addr] = cn.StatsJSON
	}
	cfg := core.Config{DB: dbClient, Nodes: nodes, Clock: clock.Real{}}
	if *pcAddr != "" {
		pc, err := pincushion.Dial(*pcAddr, 4)
		if err != nil {
			log.Fatalf("txcache-serve: dial pincushion %s: %v", *pcAddr, err)
		}
		cfg.Pincushion = pc
		tiers["pincushion"] = pc.StatsJSON
	}
	client := core.NewClient(cfg)

	attachCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	ds, err := rubis.Attach(attachCtx, client)
	if err != nil {
		cancel()
		log.Fatalf("txcache-serve: attach (is the dataset loaded?): %v", err)
	}
	app := rubis.NewApp(client, ds)
	var w *serve.Wiki
	if *wiki {
		if w, err = serve.AttachWiki(attachCtx, client); err != nil {
			cancel()
			log.Fatalf("txcache-serve: attach wiki (txcache-dbd -wiki-pages?): %v", err)
		}
	}
	cancel()
	users, items, cats, regs := ds.Ranges()
	log.Printf("txcache-serve: attached: %d users, %d items, %d categories, %d regions, wiki=%v",
		users, items, cats, regs, *wiki)

	srv := serve.New(serve.Config{
		App: app, Wiki: w,
		RequestTimeout: *requestTimeout,
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		Staleness:      *staleness,
		Logf:           log.Printf,
		Tiers:          tiers,
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("txcache-serve: %v", err)
	}
	log.Printf("txcache-serve: serving on %s (%d cache nodes, staleness %v)",
		l.Addr(), len(nodes), *staleness)

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
		client.Close()
	}
}
