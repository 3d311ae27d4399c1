// Command pincushiond runs the pincushion daemon (paper §5.4): the
// registry of pinned database snapshots. It answers GetPins/Register/
// Release requests from TxCache libraries and periodically unpins old,
// unused snapshots on the database daemon. Its counters are
// pincushion.Stats, answered on rpc.OpStats; txcache-serve shows them on
// /statsz.
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
	"txcache/internal/pincushion"
)

func main() {
	listen := flag.String("listen", ":7600", "address to listen on")
	dbAddr := flag.String("db", "", "database daemon address for UNPIN (optional)")
	retention := flag.Duration("retention", 60*time.Second, "keep unused pins this long")
	staleness := flag.Duration("staleness", 0, "largest staleness bound applications use; lets the sweeper trim unused pins early (0: retention only)")
	sweepEvery := flag.Duration("sweep-interval", 5*time.Second, "sweep period")
	flag.Parse()

	cfg := pincushion.Config{Retention: *retention, Staleness: *staleness}
	if *dbAddr != "" {
		cl, err := dbnet.Dial(*dbAddr, 2)
		if err != nil {
			log.Fatalf("pincushiond: dial db: %v", err)
		}
		cfg.DB = cl
	}
	pc := pincushion.New(cfg)

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
