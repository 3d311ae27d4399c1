// Command pincushiond runs the pincushion daemon (paper §5.4): the
// registry of pinned database snapshots. It answers GetPins/Register/
// Release requests from TxCache libraries, pins on the database daemon each
// snapshot it adopts, and unpins old, unused ones there. Its counters are
// pincushion.Stats, answered on rpc.OpStats; txcache-serve shows them on
// /statsz, and -debug-addr serves them beside pprof (internal/debugz).
//
// Usage:
//
//	pincushiond -listen :7600 -db localhost:7700 -retention 60s
package main

import (
	"flag"
	"log"
	"net"
	"time"

	"txcache/internal/db/dbnet"
	"txcache/internal/debugz"
	"txcache/internal/pincushion"
)

func main() {
	listen := flag.String("listen", ":7600", "address to listen on")
	dbAddr := flag.String("db", "", "database daemon address, where the pincushion pins the snapshots it tracks (required)")
	retention := flag.Duration("retention", 60*time.Second, "keep unused pins this long")
	staleness := flag.Duration("staleness", 0, "largest staleness bound applications use; lets the sweeper trim unused pins early (0: retention only)")
	sweepEvery := flag.Duration("sweep-interval", 5*time.Second, "sweep period")
	debugAddr := flag.String("debug-addr", "", "serve /statsz and /debug/pprof/ here (empty: no debug surface, heap sampling off)")
	flag.Parse()

	if *dbAddr == "" {
		log.Fatal("pincushiond: -db is required: a pincushion that pins nothing hands out snapshots nobody holds")
	}
	db, err := dbnet.Dial(*dbAddr, 2)
	if err != nil {
		log.Fatalf("pincushiond: dial db: %v", err)
	}
	pc := pincushion.New(pincushion.Config{Retention: *retention, Staleness: *staleness, DB: db})
	if err := debugz.Start(*debugAddr, func() any { return pc.Stats() }); err != nil {
		log.Fatalf("pincushiond: -debug-addr: %v", err)
	}

	stop := make(chan struct{})
	go pc.RunSweeper(*sweepEvery, stop)
	defer close(stop)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("pincushiond: %v", err)
	}
	log.Printf("pincushiond: serving on %s (retention %v)", l.Addr(), *retention)
	log.Fatal(pc.Serve(l))
}
