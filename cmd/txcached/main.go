// Command txcached runs one TxCache cache server node (paper §4). It
// serves LOOKUP/PUT requests and applies the invalidation stream pushed by
// the database daemon. Its counters are cacheserver.Stats, answered on
// rpc.OpStats; txcache-serve shows them on /statsz.
//
// Usage:
//
//	txcached -listen :7500 -capacity 512MB -max-staleness 60s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"txcache/internal/cacheserver"
)

func main() {
	listen := flag.String("listen", ":7500", "address to listen on")
	capacity := flag.String("capacity", "256MB", "cache capacity (e.g. 64MB, 1GB, 0 = unlimited)")
	maxStale := flag.Duration("max-staleness", 60*time.Second, "eagerly evict entries invalidated longer ago than this (0 = never)")
	flag.Parse()

	bytes, err := parseBytes(*capacity)
	if err != nil {
		log.Fatalf("txcached: bad -capacity: %v", err)
	}
	srv := cacheserver.New(cacheserver.Config{
		CapacityBytes: bytes,
		MaxStaleness:  *maxStale,
	})
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("txcached: %v", err)
	}
	log.Printf("txcached: serving on %s (capacity %s, max staleness %v)", l.Addr(), *capacity, *maxStale)

	if err := srv.Serve(l); err != nil {
		fmt.Fprintf(os.Stderr, "txcached: %v\n", err)
		os.Exit(1)
	}
}

func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}
