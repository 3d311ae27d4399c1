package txcache_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"txcache"
)

// exampleSite builds the minimal in-process deployment the package doc
// describes and seeds one table. Shared by the Example functions so each
// can stay focused on the API it documents.
func exampleSite() (*txcache.Client, *txcache.Engine, *txcache.CacheServer) {
	bus := txcache.NewBus(false)
	engine := txcache.NewEngine(txcache.EngineOptions{Bus: bus})
	node := txcache.NewCacheServer(txcache.CacheConfig{})
	go node.ConsumeStream(bus.Subscribe())
	pc := txcache.NewPincushion(txcache.PincushionConfig{DB: engine})
	client := txcache.NewClient(txcache.Config{
		DB:         txcache.WrapEngine(engine),
		Nodes:      map[string]txcache.CacheNode{"local": node},
		Pincushion: pc,
	})
	if err := engine.DDL(`CREATE TABLE users (id BIGINT PRIMARY KEY, name TEXT, karma BIGINT)`); err != nil {
		log.Fatal(err)
	}
	if _, err := client.ReadWrite(context.Background(), func(rw *txcache.Tx) error {
		_, err := rw.Exec(`INSERT INTO users (id, name, karma) VALUES (7, 'alice', 100)`)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	waitCaughtUp(node, engine)
	return client, engine, node
}

// waitCaughtUp blocks until the node has processed the invalidation stream
// up to the engine's last commit (paper §4.2: still-valid entries are only
// servable up to the last processed invalidation).
func waitCaughtUp(node *txcache.CacheServer, engine *txcache.Engine) {
	for node.LastInvalidation() < engine.LastCommit() {
		time.Sleep(time.Millisecond)
	}
}

// Example demonstrates the documented path end to end: one cacheable
// function, a context-bound read-only transaction, and a cache hit on the
// second call.
func Example() {
	client, _, _ := exampleSite()
	ctx := context.Background()

	getName := txcache.MakeCacheable(client, "getName",
		func(tx *txcache.Tx, args ...txcache.Value) (string, error) {
			r, err := tx.Query("SELECT name FROM users WHERE id = ?", args...)
			if err != nil || len(r.Rows) == 0 {
				return "", err
			}
			return r.Rows[0][0].(string), nil
		})

	for i := 0; i < 2; i++ {
		tx, err := client.Begin(ctx, txcache.WithStaleness(30*time.Second))
		if err != nil {
			log.Fatal(err)
		}
		name, err := getName(tx, int64(7))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
		fmt.Println(name)
	}
	fmt.Println("hits:", client.Stats().Hits())
	// Output:
	// alice
	// alice
	// hits: 1
}

// ExampleClient_ReadWrite shows the read/write closure runner: it begins,
// commits, retries serialization conflicts, and returns the commit
// timestamp, which the next transaction uses for session causality.
func ExampleClient_ReadWrite() {
	client, _, _ := exampleSite()
	ctx := context.Background()

	ts, err := client.ReadWrite(ctx, func(rw *txcache.Tx) error {
		_, err := rw.Exec("UPDATE users SET karma = 1000 WHERE id = 7")
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	var karma int64
	_, err = client.ReadOnly(ctx, func(tx *txcache.Tx) error {
		r, err := tx.Query("SELECT karma FROM users WHERE id = 7")
		if err != nil {
			return err
		}
		karma = r.Rows[0][0].(int64)
		return nil
	}, txcache.WithMinTimestamp(ts)) // never see time move backwards
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("karma:", karma)
	// Output:
	// karma: 1000
}

// ExampleClient_Begin_cancellation shows that a transaction observes its
// context: once cancelled, every statement returns the wrapped context
// error and Commit aborts, releasing pinned snapshots.
func ExampleClient_Begin_cancellation() {
	client, _, _ := exampleSite()
	ctx, cancel := context.WithCancel(context.Background())

	tx, err := client.Begin(ctx, txcache.WithStaleness(30*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	cancel()
	if _, err := tx.Query("SELECT name FROM users WHERE id = 7"); err != nil {
		fmt.Println("query:", err)
	}
	if _, err := tx.Commit(); err != nil {
		fmt.Println("commit:", err)
	}
	// Output:
	// query: txcache: context canceled
	// commit: txcache: context canceled
}
