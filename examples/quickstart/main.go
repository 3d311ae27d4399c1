// Quickstart: a complete TxCache deployment in ~120 lines.
//
// It builds the database engine, one cache node served over real TCP, the
// pincushion, and the library client; declares a cacheable function; and
// demonstrates the headline behaviors through the context-first API:
// memoization, automatic invalidation, transactional consistency under
// staleness, and the ReadOnly/ReadWrite closure runners.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"txcache"
)

func main() {
	ctx := context.Background()

	// 1. The substrate: database, invalidation stream, one cache node on a
	//    real socket, and the pincushion.
	bus := txcache.NewBus(false)
	engine := txcache.NewEngine(txcache.EngineOptions{Bus: bus})
	node := txcache.NewCacheServer(txcache.CacheConfig{})
	go node.ConsumeStream(bus.Subscribe())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	go node.Serve(l)
	// A put is written before it returns, on the connection this goroutine's
	// next lookup leases, so the node has applied it by then.
	cn, err := txcache.DialCache(l.Addr().String(), 1)
	must(err)
	defer cn.Close()
	pc := txcache.NewPincushion(txcache.PincushionConfig{DB: engine})

	client := txcache.NewClient(txcache.Config{
		DB:         txcache.WrapEngine(engine),
		Nodes:      map[string]txcache.CacheNode{"local": cn},
		Pincushion: pc,
	})

	// 2. Schema and data. ReadWrite begins, commits, and releases on every
	//    exit path, retrying serialization conflicts.
	must(engine.DDL(`CREATE TABLE users (id BIGINT PRIMARY KEY, name TEXT, karma BIGINT)`))
	must(engine.DDL(`CREATE INDEX users_name ON users (name)`))
	_, err = client.ReadWrite(ctx, func(rw *txcache.Tx) error {
		_, err := rw.Exec(`INSERT INTO users (id, name, karma) VALUES (1, 'alice', 100), (2, 'bob', 50)`)
		return err
	})
	must(err)
	settle() // let the invalidation stream drain (paper §4.2)

	// 3. A cacheable function: pure in (arguments, database state).
	calls := 0
	getKarma := txcache.MakeCacheable(client, "getKarma",
		func(tx *txcache.Tx, args ...txcache.Value) (int64, error) {
			calls++
			r, err := tx.Query("SELECT karma FROM users WHERE id = ?", args...)
			if err != nil || len(r.Rows) == 0 {
				return 0, err
			}
			return r.Rows[0][0].(int64), nil
		})

	// First call: miss, computed from the database and installed.
	tx, err := client.Begin(ctx, txcache.WithStaleness(30*time.Second))
	must(err)
	k, err := getKarma(tx, int64(1))
	must(err)
	_, err = tx.Commit()
	must(err)
	fmt.Printf("alice's karma = %d (computed, %d call)\n", k, calls)

	// Second call: served from the cache, no database work.
	tx, err = client.Begin(ctx) // the default staleness limit (30s) applies
	must(err)
	k, err = getKarma(tx, int64(1))
	must(err)
	tx.Commit()
	fmt.Printf("alice's karma = %d (cached, still %d call)\n", k, calls)

	// 4. Automatic invalidation: update the row; the cached entry's
	//    validity interval is truncated by the invalidation stream — no
	//    application invalidation code anywhere.
	wts, err := client.ReadWrite(ctx, func(rw *txcache.Tx) error {
		_, err := rw.Exec("UPDATE users SET karma = 1000 WHERE id = 1")
		return err
	})
	must(err)
	settle()

	// A transaction bounded below by the write's timestamp sees the new
	// value; threading commit timestamps like this gives session causality.
	tx, err = client.Begin(ctx, txcache.WithStaleness(30*time.Second), txcache.WithMinTimestamp(wts))
	must(err)
	k, err = getKarma(tx, int64(1))
	must(err)
	tx.Commit()
	fmt.Printf("alice's karma = %d (after update, %d calls)\n", k, calls)

	// 5. Consistency: a transaction that reads one value from the cache and
	//    one from the database is still guaranteed a single-snapshot view.
	//    The ReadOnly runner wraps begin/commit and reports the snapshot.
	var a, b int64
	ts, err := client.ReadOnly(ctx, func(tx *txcache.Tx) error {
		var err error
		if a, err = getKarma(tx, int64(1)); err != nil {
			return err
		}
		r, err := tx.Query("SELECT karma FROM users WHERE id = 2")
		if err != nil {
			return err
		}
		b = r.Rows[0][0].(int64)
		return nil
	})
	must(err)
	fmt.Printf("consistent snapshot @%v: alice=%d bob=%d\n", ts, a, b)

	// 6. Final stats: the library's counters and the cache transport's.
	st, cs := client.Stats(), cn.ClientStats()
	fmt.Printf("library stats: hits=%d misses=%d puts=%d hit-rate=%.0f%%\n",
		st.Hits(), st.Misses(), st.CachePuts.Load(), 100*st.HitRate())
	fmt.Printf("cache transport: puts sent=%d failed=%d\n", cs.PutsSent, cs.PutErrors)
	if calls != 2 {
		log.Fatalf("expected exactly 2 computations, got %d", calls)
	}
	fmt.Println("quickstart OK")
}

func settle() { time.Sleep(10 * time.Millisecond) }

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
