// Auction: the RUBiS auction site on a distributed TxCache deployment.
//
// This example runs the full component topology of the paper's Figure 1 in
// one process, but with every hop over real TCP: two cache server nodes and
// the database daemon, which hosts the pincushion on a port of its own, plus
// an application server using the TxCache library with consistent hashing
// across the cache nodes.
// It then drives a short burst of the RUBiS bidding mix and prints the
// cache behavior.
//
// Run with: go run ./examples/auction
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"txcache/internal/bench"
	"txcache/internal/rubis"
)

func main() {
	// One context bounds the whole demo: every transaction of every
	// emulated session runs under it, so a wedged daemon cannot hang the
	// example past the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// The topology, built by the same functions txcache-dbd and
	// txcache-serve run, with the RUBiS dataset loaded.
	st, err := bench.StartServeStack(bench.ServeStackConfig{Seed: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded RUBiS: %d users, %d active items (db at commit %d)\n",
		rubis.TestScale.Users, rubis.TestScale.ActiveItems, st.Engine.LastCommit())

	// Drive the bidding mix.
	res := rubis.RunEmulator(st.App, rubis.EmulatorConfig{
		Ctx: ctx, Clients: 8, Staleness: 30 * time.Second, Duration: 2 * time.Second, Seed: 5,
	})
	cs := st.App.C.Stats()
	fmt.Printf("ran %d interactions in %v (%.0f req/s), %d read-only / %d read-write\n",
		res.Requests, res.Elapsed.Round(time.Millisecond), res.Throughput(), res.ReadOnly, res.ReadWrite)
	fmt.Printf("cache: %d hits, %d misses (%.1f%% hit rate) over TCP\n",
		cs.Hits(), cs.Misses(), 100*cs.HitRate())
	fmt.Printf("db daemon: %+v\n", st.Engine.Stats())
	switch err := st.Stop(ctx); {
	case err != nil:
		log.Fatal(err)
	case res.Errors > 0:
		log.Fatalf("%d interaction errors", res.Errors)
	case cs.Hits() == 0:
		log.Fatal("expected cache hits over TCP")
	}
	fmt.Println("auction OK")
}
